// The degraded read-only mode and snapshot write atomicity under
// injected disk faults: a failed write (open / short write / fsync /
// rename) never touches the previous snapshot and never leaves a temp
// file behind; the store then fast-fails further writes inside an
// exponential-backoff window, probes the disk when it elapses, and heals
// on the first success; and at the server level an unwritable data dir
// flips stats to degraded:true while reads keep serving bit-identical
// answers, and heals back to degraded:false once the disk recovers.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "serve/server.h"
#include "serve/session_store.h"
#include "tests/serve/serve_test_util.h"

namespace cpclean {
namespace {

using serve_test::ParseOk;

class DegradedModeTest : public ::testing::Test {
 protected:
  // Fault rules are process-global; every test starts and ends clean.
  void SetUp() override { FaultInjection::Clear(); }
  void TearDown() override { FaultInjection::Clear(); }
};

/// A fresh empty data dir under the test tmpdir.
std::string FreshDataDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/cpclean_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Store options over `dir` with the given degraded-mode probe backoff.
SessionStoreOptions StoreOptions(const std::string& dir,
                                 int backoff_initial_ms = 100,
                                 int backoff_max_ms = 5000) {
  SessionStoreOptions options;
  options.data_dir = dir;
  options.degraded_backoff_initial_ms = backoff_initial_ms;
  options.degraded_backoff_max_ms = backoff_max_ms;
  return options;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Files in `dir` whose name contains `needle`.
std::vector<std::string> FilesContaining(const std::string& dir,
                                         const std::string& needle) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(needle) != std::string::npos) out.push_back(name);
  }
  return out;
}

std::string CreateRequest(const std::string& name, int seed) {
  return StrFormat(
      "{\"op\":\"create_session\",\"session\":\"%s\",\"source\":"
      "\"synthetic\",\"dataset\":\"store\",\"train_rows\":30,\"val_size\":4,"
      "\"test_size\":4,\"seed\":%d,\"numeric\":4,\"categorical\":0,"
      "\"noise_sigma\":0.3,\"missing_rate\":0.25,\"k\":3}",
      name.c_str(), seed);
}

/// Serialized q2 responses (exact JSON bits) for every validation index.
std::vector<std::string> Q2Sweep(Server* server, const std::string& name) {
  std::vector<std::string> out;
  for (int v = 0; v < 4; ++v) {
    const JsonValue result = ParseOk(server->HandleLine(
        StrFormat("{\"op\":\"q2\",\"session\":\"%s\",\"val_indices\":[%d]}",
                  name.c_str(), v)));
    out.push_back(result.Find("results")->array()[0].Dump());
  }
  return out;
}

bool StatsDegraded(Server* server) {
  return ParseOk(server->HandleLine("{\"op\":\"stats\"}"))
      .Find("degraded")
      ->bool_value();
}

TEST_F(DegradedModeTest, FailedWritesLeavePreviousSnapshotIntact) {
  const std::string dir = FreshDataDir("atomic");
  // A saveable (spec-carrying) session, built by a server with no data
  // dir so every write below goes through the stores under test.
  Server builder{ServerOptions()};
  ParseOk(builder.HandleLine(CreateRequest("s", 11)));
  const std::shared_ptr<ServeSession> session =
      builder.registry().Get("s").value();

  // The committed state: a base snapshot plus a one-step cleaning log.
  {
    SessionStore store(StoreOptions(dir));
    ASSERT_TRUE(store.Save(*session).ok());
    ASSERT_TRUE(session->CleanStep(1).ok());
    ASSERT_TRUE(store.Save(*session).ok());
  }
  const std::string path = dir + "/s.cpsession";
  const std::string log_path = dir + "/s.cplog";
  const std::string base = ReadFile(path);
  const std::string log = ReadFile(log_path);
  ASSERT_FALSE(log.empty());
  // A step past the baseline, so every save below has something to write.
  // A failed save leaves the baseline where it was.
  ASSERT_TRUE(session->CleanStep(1).ok());

  // With a zero compaction threshold every save that has something to
  // write is a full base, which would fold the log away. Every stage of
  // its temp-write + fsync + rename pipeline fails in turn — store.flush
  // is the fsync. None may corrupt or replace the committed base, remove
  // the log (a base that may not be on disk must never supersede it), or
  // leave its temp file behind. Short backoff so each store is writable
  // again quickly.
  SessionStoreOptions full_base = StoreOptions(dir, 30, 120);
  full_base.log_compact_bytes = 0;
  for (const char* fault :
       {"store.open=once", "store.write=once", "store.flush=once",
        "store.rename=once"}) {
    SessionStore store(full_base);
    ASSERT_TRUE(FaultInjection::Configure(fault).ok());
    EXPECT_EQ(store.Save(*session).code(), StatusCode::kIoError) << fault;
    EXPECT_EQ(ReadFile(path), base) << fault;
    EXPECT_EQ(ReadFile(log_path), log) << fault;
    EXPECT_TRUE(FilesContaining(dir, ".tmp").empty()) << fault;

    // Heal: clear the fault, wait out the backoff window, and prove the
    // disk probe writes again.
    FaultInjection::Clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(store.CheckDegraded()) << fault;
  }

  // The committed state still rehydrates, one step cleaned; a healthy
  // full save then lands and folds the log away.
  SessionStore store(StoreOptions(dir));
  EXPECT_EQ(store.Load("s").value()->Stats().Find("num_cleaned")
                ->number_value(),
            1);
  SessionStore compacting(full_base);
  ASSERT_TRUE(compacting.Save(*session).ok());
  EXPECT_NE(ReadFile(path), base);
  EXPECT_FALSE(std::filesystem::exists(log_path));
}

TEST_F(DegradedModeTest, DegradedModeFastFailsThenProbesAndHeals) {
  const std::string dir = FreshDataDir("degraded_fsm");
  SessionStore store(StoreOptions(dir, 50, 200));
  Server builder{ServerOptions()};
  ParseOk(builder.HandleLine(CreateRequest("s", 12)));
  ServeSession& session = *builder.registry().Get("s").value();

  const auto site_hits = [] {
    for (const auto& s : FaultInjection::Stats()) {
      if (s.site == "store.open") return s.hits;
    }
    return uint64_t{0};
  };

  // No durable baseline yet, so every save is a full base write.
  ASSERT_TRUE(FaultInjection::Configure("store.open=always").ok());
  EXPECT_EQ(store.Save(session).code(), StatusCode::kIoError);
  EXPECT_EQ(site_hits(), 1u);
  EXPECT_TRUE(store.CheckDegraded());
  // Inside the backoff window: writes fast-fail without touching the disk
  // (the fault site is never reached) and without extending the backoff.
  EXPECT_EQ(store.Save(session).code(), StatusCode::kIoError);
  EXPECT_EQ(site_hits(), 1u);

  // Window elapses → CheckDegraded probes (a real disk attempt, so the
  // site fires again), fails, and doubles the backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_TRUE(store.CheckDegraded());
  EXPECT_EQ(site_hits(), 2u);

  // Disk recovers; the next probe after the (now 100ms) window heals.
  FaultInjection::Clear();
  bool healed = false;
  for (int i = 0; i < 40 && !healed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    healed = !store.CheckDegraded();
  }
  EXPECT_TRUE(healed);
  // The probe cleans up after itself.
  EXPECT_TRUE(FilesContaining(dir, ".cpclean_probe").empty());
  EXPECT_TRUE(store.Save(session).ok());
}

TEST_F(DegradedModeTest, ServerKeepsServingBitIdenticalWhileDegraded) {
  const std::string dir = FreshDataDir("degraded_server");
  ServerOptions options;
  options.data_dir = dir;
  Server server(options);
  ParseOk(server.HandleLine(CreateRequest("s", 11)));
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"s\"}"));
  // Dirty the session so the next save has something to persist (an
  // unchanged session's save is a disk-less no-op under delta saves).
  ParseOk(server.HandleLine(
      "{\"op\":\"clean_step\",\"session\":\"s\",\"steps\":1}"));
  const std::vector<std::string> baseline = Q2Sweep(&server, "s");
  EXPECT_FALSE(StatsDegraded(&server));

  // The data dir becomes unwritable — both the delta log-append and the
  // full-snapshot path: saves fail with IoError, stats report it, and
  // queries are bit-identical to the healthy baseline.
  ASSERT_TRUE(FaultInjection::Configure(
                  "store.open=always;log.append=always")
                  .ok());
  const std::string failed =
      server.HandleLine("{\"op\":\"save_session\",\"session\":\"s\"}");
  EXPECT_NE(failed.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(failed.find("IO error"), std::string::npos);
  EXPECT_TRUE(StatsDegraded(&server));
  EXPECT_EQ(Q2Sweep(&server, "s"), baseline);
  ParseOk(server.HandleLine(
      "{\"op\":\"clean_step\",\"session\":\"s\",\"steps\":1}"));
  EXPECT_TRUE(StatsDegraded(&server));

  // Disk recovers: the stats poll's probe heals the store (possibly after
  // a couple of backoff windows), and saves work again.
  FaultInjection::Clear();
  bool healed = false;
  for (int i = 0; i < 60 && !healed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    healed = !StatsDegraded(&server);
  }
  EXPECT_TRUE(healed);
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"s\"}"));
}

TEST_F(DegradedModeTest, EvictionSurfacesIoErrorWhileDegraded) {
  const std::string dir = FreshDataDir("degraded_evict");
  ServerOptions options;
  options.data_dir = dir;
  options.max_sessions = 1;
  Server server(options);
  ParseOk(server.HandleLine(CreateRequest("a", 1)));
  const std::vector<std::string> baseline = Q2Sweep(&server, "a");

  // Admitting a second session requires evicting (saving) the first; with
  // the disk unwritable that save fails, and create_session must surface
  // the IoError instead of silently discarding "a".
  ASSERT_TRUE(FaultInjection::Configure("store.open=always").ok());
  const std::string rejected = server.HandleLine(CreateRequest("b", 2));
  EXPECT_NE(rejected.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(rejected.find("IO error"), std::string::npos);

  // "a" is still resident and still bit-identical.
  EXPECT_EQ(Q2Sweep(&server, "a"), baseline);
}

}  // namespace
}  // namespace cpclean
