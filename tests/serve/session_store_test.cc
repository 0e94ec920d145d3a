// The session lifecycle: save → evict → rehydrate. A session persisted
// mid-cleaning and rebuilt (same process or a fresh Server over the same
// data dir) must serve bit-identical q2/certify/predict answers and
// continue cleaning in exactly the order the uninterrupted session would
// have, including the zero-steps-cleaned and nothing-dirty edge cases.
// Also covers the LRU eviction sweep and the explicit save/load/drop ops.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
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

using serve_test::NumberArray;
using serve_test::ParseOk;

constexpr int kTrain = 30;
constexpr int kVal = 6;
constexpr int kK = 3;

std::string CreateRequest(const std::string& name, int seed,
                          double missing_rate = 0.25) {
  return StrFormat(
      "{\"op\":\"create_session\",\"session\":\"%s\",\"source\":"
      "\"synthetic\",\"dataset\":\"store\",\"train_rows\":%d,\"val_size\":%d,"
      "\"test_size\":6,\"seed\":%d,\"numeric\":4,\"categorical\":0,"
      "\"noise_sigma\":0.3,\"missing_rate\":%g,\"k\":%d}",
      name.c_str(), kTrain, kVal, seed, missing_rate, kK);
}

/// A fresh empty data dir under the test tmpdir.
std::string FreshDataDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/cpclean_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SessionStoreOptions StoreOptions(const std::string& data_dir) {
  SessionStoreOptions options;
  options.data_dir = data_dir;
  return options;
}

Server MakeServer(const std::string& data_dir, size_t max_sessions = 0) {
  ServerOptions options;
  options.data_dir = data_dir;
  options.max_sessions = max_sessions;
  return Server(options);
}

/// Serialized q2 responses (probs + entropy + version, exact JSON bits)
/// for every validation index.
std::vector<std::string> Q2Sweep(Server* server, const std::string& name) {
  std::vector<std::string> out;
  for (int v = 0; v < kVal; ++v) {
    const JsonValue result = ParseOk(server->HandleLine(
        StrFormat("{\"op\":\"q2\",\"session\":\"%s\",\"val_indices\":[%d]}",
                  name.c_str(), v)));
    out.push_back(result.Find("results")->array()[0].Dump());
  }
  return out;
}

std::vector<int> CleanedIds(const JsonValue& result) {
  std::vector<int> out;
  for (const JsonValue& x : result.Find("cleaned")->array()) {
    out.push_back(static_cast<int>(x.number_value()));
  }
  return out;
}

TEST(SessionStoreTest, SaveRestartRehydrateBitIdentical) {
  const std::string dir = FreshDataDir("roundtrip");
  constexpr int kSeed = 41;

  // The never-persisted twin: same session, cleaned 2 steps, then run to
  // the end — the ground truth for both answers and cleaning order.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("s", kSeed)));
  ParseOk(twin.HandleLine("{\"op\":\"clean_step\",\"session\":\"s\","
                          "\"steps\":2}"));
  const std::vector<std::string> twin_mid = Q2Sweep(&twin, "s");
  const std::string twin_certify = ParseOk(
      twin.HandleLine("{\"op\":\"certify\",\"session\":\"s\","
                      "\"val_indices\":[0]}"))
                                       .Dump();
  const std::vector<int> twin_rest = CleanedIds(ParseOk(
      twin.HandleLine("{\"op\":\"clean_run\",\"session\":\"s\"}")));
  const std::vector<std::string> twin_final = Q2Sweep(&twin, "s");

  std::string snapshot_path;
  {
    // First server: clean 2 steps mid-way, save, and go away (scope end =
    // process restart as far as the data dir is concerned).
    Server first = MakeServer(dir);
    ParseOk(first.HandleLine(CreateRequest("s", kSeed)));
    ParseOk(first.HandleLine("{\"op\":\"clean_step\",\"session\":\"s\","
                             "\"steps\":2}"));
    const std::vector<std::string> first_mid = Q2Sweep(&first, "s");
    EXPECT_EQ(first_mid, twin_mid);
    const JsonValue saved = ParseOk(
        first.HandleLine("{\"op\":\"save_session\",\"session\":\"s\"}"));
    EXPECT_EQ(saved.Find("saved")->string_value(), "s");
    snapshot_path = saved.Find("path")->string_value();
    EXPECT_TRUE(std::filesystem::exists(snapshot_path));
  }

  // Second server over the same data dir: the very first request names
  // the session — lazy rehydration, no explicit load_session.
  Server second = MakeServer(dir);
  EXPECT_EQ(second.registry().size(), 0u);
  EXPECT_EQ(Q2Sweep(&second, "s"), twin_mid);
  EXPECT_EQ(ParseOk(second.HandleLine(
                        "{\"op\":\"certify\",\"session\":\"s\","
                        "\"val_indices\":[0]}"))
                .Dump(),
            twin_certify);
  const JsonValue stats = ParseOk(
      second.HandleLine("{\"op\":\"stats\",\"session\":\"s\"}"));
  EXPECT_EQ(static_cast<int>(stats.Find("num_cleaned")->number_value()), 2);
  // The resolved options rode along through the snapshot.
  const JsonValue* options = stats.Find("options");
  ASSERT_NE(options, nullptr);
  EXPECT_EQ(static_cast<int>(options->Find("k")->number_value()), kK);
  EXPECT_EQ(options->Find("kernel")->string_value(), "neg_euclidean");
  // The rest of the cleaning replays in exactly the twin's order.
  EXPECT_EQ(CleanedIds(ParseOk(second.HandleLine(
                "{\"op\":\"clean_run\",\"session\":\"s\"}"))),
            twin_rest);
  EXPECT_EQ(Q2Sweep(&second, "s"), twin_final);
}

TEST(SessionStoreTest, ZeroStepsAndNothingDirtyRoundTrip) {
  const std::string dir = FreshDataDir("edges");
  // (a) Saved before any cleaning: the snapshot carries an empty order.
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("virgin", 43)));
    const std::vector<std::string> before = Q2Sweep(&server, "virgin");
    ParseOk(server.HandleLine(
        "{\"op\":\"save_session\",\"session\":\"virgin\"}"));
    Server reloaded = MakeServer(dir);
    EXPECT_EQ(Q2Sweep(&reloaded, "virgin"), before);
    const JsonValue stats = ParseOk(reloaded.HandleLine(
        "{\"op\":\"stats\",\"session\":\"virgin\"}"));
    EXPECT_EQ(static_cast<int>(stats.Find("num_cleaned")->number_value()),
              0);
  }
  // (b) A task with no dirty rows at all (missing_rate 0): every candidate
  // set is a singleton; cleaning is a no-op before and after rehydration.
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(
        CreateRequest("pristine", 44, /*missing_rate=*/0.0)));
    const std::vector<std::string> before = Q2Sweep(&server, "pristine");
    EXPECT_TRUE(CleanedIds(ParseOk(server.HandleLine(
                               "{\"op\":\"clean_step\",\"session\":"
                               "\"pristine\"}")))
                    .empty());
    ParseOk(server.HandleLine(
        "{\"op\":\"save_session\",\"session\":\"pristine\"}"));
    Server reloaded = MakeServer(dir);
    EXPECT_TRUE(CleanedIds(ParseOk(reloaded.HandleLine(
                               "{\"op\":\"clean_step\",\"session\":"
                               "\"pristine\"}")))
                    .empty());
    EXPECT_EQ(Q2Sweep(&reloaded, "pristine"), before);
  }
}

TEST(SessionStoreTest, EvictionIsLruAndRehydrationIsLazy) {
  const std::string dir = FreshDataDir("eviction");
  Server server = MakeServer(dir, /*max_sessions=*/2);
  ParseOk(server.HandleLine(CreateRequest("e1", 51)));
  ParseOk(server.HandleLine(CreateRequest("e2", 52)));
  const std::vector<std::string> e2_before = Q2Sweep(&server, "e2");
  Q2Sweep(&server, "e1");  // e1 is now more recently used than e2

  // Creating e3 pushes past max_sessions: e2 (LRU) is saved + dropped.
  ParseOk(server.HandleLine(CreateRequest("e3", 53)));
  EXPECT_EQ(server.registry().size(), 2u);
  const JsonValue listed = ParseOk(
      server.HandleLine("{\"op\":\"list_sessions\"}"));
  ASSERT_EQ(listed.Find("sessions")->array().size(), 2u);
  EXPECT_EQ(listed.Find("sessions")->array()[0].string_value(), "e1");
  EXPECT_EQ(listed.Find("sessions")->array()[1].string_value(), "e3");
  // The evicted session still owns its name and shows up as such.
  ASSERT_NE(listed.Find("evicted"), nullptr);
  ASSERT_EQ(listed.Find("evicted")->array().size(), 1u);
  EXPECT_EQ(listed.Find("evicted")->array()[0].string_value(), "e2");
  const JsonValue global = ParseOk(server.HandleLine("{\"op\":\"stats\"}"));
  ASSERT_NE(global.Find("saved"), nullptr);
  ASSERT_EQ(global.Find("saved")->array().size(), 1u);
  EXPECT_EQ(global.Find("saved")->array()[0].string_value(), "e2");

  // Monitoring an evicted session answers a stub — it must neither
  // rehydrate nor stamp the session recently-used.
  const JsonValue evicted_stats = ParseOk(
      server.HandleLine("{\"op\":\"stats\",\"session\":\"e2\"}"));
  EXPECT_EQ(evicted_stats.Find("state")->string_value(), "evicted");
  EXPECT_EQ(server.registry().size(), 2u);

  // Touching e2 rehydrates it bit-identically and (capacity again) evicts
  // e1, now the least recently used.
  EXPECT_EQ(Q2Sweep(&server, "e2"), e2_before);
  const JsonValue relisted = ParseOk(
      server.HandleLine("{\"op\":\"list_sessions\"}"));
  ASSERT_EQ(relisted.Find("sessions")->array().size(), 2u);
  EXPECT_EQ(relisted.Find("sessions")->array()[0].string_value(), "e2");
  EXPECT_EQ(relisted.Find("sessions")->array()[1].string_value(), "e3");
}

TEST(SessionStoreTest, ExplicitOpsAndErrorPaths) {
  const std::string dir = FreshDataDir("ops");
  // No data dir: persistence ops fail loudly with Unavailable.
  {
    Server server = MakeServer("");
    ParseOk(server.HandleLine(CreateRequest("a", 61)));
    const std::string response = server.HandleLine(
        "{\"op\":\"save_session\",\"session\":\"a\"}");
    EXPECT_NE(response.find("\"Unavailable\""), std::string::npos)
        << response;
  }
  Server server = MakeServer(dir);
  // load_session of a never-saved name.
  EXPECT_NE(server.HandleLine(
                    "{\"op\":\"load_session\",\"session\":\"ghost\"}")
                .find("\"Not found\""),
            std::string::npos);
  ParseOk(server.HandleLine(CreateRequest("a", 61)));
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"a\"}"));
  // load_session while live.
  EXPECT_NE(server.HandleLine(
                    "{\"op\":\"load_session\",\"session\":\"a\"}")
                .find("\"Already exists\""),
            std::string::npos);
  // Recreating over a persisted name is refused too.
  EXPECT_NE(server.HandleLine(CreateRequest("a", 61))
                .find("\"Already exists\""),
            std::string::npos);
  // Dropping removes both the live session and its snapshot.
  const JsonValue dropped = ParseOk(
      server.HandleLine("{\"op\":\"drop_session\",\"session\":\"a\"}"));
  EXPECT_TRUE(dropped.Find("deleted_snapshot")->bool_value());
  EXPECT_NE(server.HandleLine(
                    "{\"op\":\"q2\",\"session\":\"a\",\"val_indices\":[0]}")
                .find("\"Not found\""),
            std::string::npos);
  // Explicit load_session after an eviction-style save.
  ParseOk(server.HandleLine(CreateRequest("b", 62)));
  const std::vector<std::string> b_before = Q2Sweep(&server, "b");
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"b\"}"));
  ParseOk(server.HandleLine("{\"op\":\"drop_session\",\"session\":\"b\"}"));
  // drop_session deleted the snapshot, so save again via a fresh copy.
  ParseOk(server.HandleLine(CreateRequest("b", 62)));
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"b\"}"));
  Server other = MakeServer(dir);
  const JsonValue loaded = ParseOk(other.HandleLine(
      "{\"op\":\"load_session\",\"session\":\"b\"}"));
  EXPECT_EQ(loaded.Find("name")->string_value(), "b");
  EXPECT_EQ(Q2Sweep(&other, "b"), b_before);
}

TEST(SessionStoreTest, TamperedTaskFingerprintFailsRehydration) {
  const std::string dir = FreshDataDir("tamper");
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("t", 91)));
    ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"t\"}"));
  }
  // Corrupt the fingerprint: simulates the spec rebuilding *different*
  // validation/test/oracle data than the snapshot was saved against.
  const std::string path = dir + "/t.cpsession";
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string text = buffer.str();
  const size_t pos = text.find("fingerprint ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos + 12, 16, "0000000000000000");
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();

  Server reloaded = MakeServer(dir);
  const std::string response = reloaded.HandleLine(
      "{\"op\":\"q2\",\"session\":\"t\",\"val_indices\":[0]}");
  EXPECT_NE(response.find("\"Internal error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("does not match the snapshot"), std::string::npos)
      << response;
}

TEST(SessionStoreTest, EvictedSessionRefusesLateWritesOnDetachedInstance) {
  // The eviction sweep retires its victim: a request handler that grabbed
  // the shared_ptr before the registry drop must NOT be able to apply a
  // write to the detached instance — such a write would be acknowledged
  // and then silently lost, because rehydration reads the snapshot.
  const std::string dir = FreshDataDir("retire");
  Server server = MakeServer(dir, /*max_sessions=*/1);
  ParseOk(server.HandleLine(CreateRequest("w1", 81)));
  const std::shared_ptr<ServeSession> detached =
      server.registry().Get("w1").value();
  // Creating w2 evicts w1 (the LRU) to disk.
  ParseOk(server.HandleLine(CreateRequest("w2", 82)));
  EXPECT_FALSE(server.registry().Get("w1").ok());

  // A late write through the detached pointer is refused, never applied.
  const Result<JsonValue> late = detached->CleanStep(1);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(late.status().message().find("evicted"), std::string::npos);
  // Reads on the detached instance still answer (harmless, and version-
  // stamped like any read).
  EXPECT_TRUE(detached->Q2(std::vector<double>(4, 0.0)).ok());

  // The retried write lands on the rehydrated incarnation and cleans the
  // exact tuple the refused write would have — nothing was lost or
  // double-applied.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("w1", 81)));
  const JsonValue twin_step = ParseOk(
      twin.HandleLine("{\"op\":\"clean_step\",\"session\":\"w1\"}"));
  const JsonValue retried = ParseOk(
      server.HandleLine("{\"op\":\"clean_step\",\"session\":\"w1\"}"));
  EXPECT_EQ(CleanedIds(retried), CleanedIds(twin_step));
}

/// Hits on `site` since the fault rules were last configured.
uint64_t FaultSiteHits(const std::string& site) {
  for (const FaultInjection::SiteStats& stats : FaultInjection::Stats()) {
    if (stats.site == site) return stats.hits;
  }
  return 0;
}

TEST(SessionStoreTest, WriteDuringEvictionCommitWaitsThenIsRefused) {
  // The eviction sweep holds its victim's shared lock from serialization
  // through the registry drop. A write reaching the victim while the
  // sweep commits must wait for that lock and then be refused: the saved
  // state cannot contain it, so acknowledging it would lose it. The retry
  // rehydrates the session and applies the step there.
  const std::string dir = FreshDataDir("write_during_commit");
  Server server = MakeServer(dir, /*max_sessions=*/1);
  ParseOk(server.HandleLine(CreateRequest("a", 83)));
  const std::shared_ptr<ServeSession> a = server.registry().Get("a").value();

  // "a" was never saved, so the sweep writes a full base; its fsync
  // stalls, with the victim's shared lock held.
  ASSERT_TRUE(FaultInjection::Configure("store.flush=sleep:300").ok());
  std::thread decoy(
      [&] { ParseOk(server.HandleLine(CreateRequest("decoy", 84))); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (FaultSiteHits("store.flush") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool in_commit = FaultSiteHits("store.flush") > 0;
  const auto start = std::chrono::steady_clock::now();
  const Result<JsonValue> late = a->CleanStep(1);
  const auto waited = std::chrono::steady_clock::now() - start;
  decoy.join();
  FaultInjection::Clear();
  ASSERT_TRUE(in_commit);
  EXPECT_GE(waited, std::chrono::milliseconds(100));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(late.status().message().find("evicted"), std::string::npos);
  EXPECT_FALSE(server.registry().Get("a").ok());

  // The retry rehydrates "a" and cleans exactly the tuple a never-
  // persisted twin cleans first, and that step survives a restart.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("a", 83)));
  const JsonValue twin_step = ParseOk(
      twin.HandleLine("{\"op\":\"clean_step\",\"session\":\"a\"}"));
  const JsonValue retried = ParseOk(
      server.HandleLine("{\"op\":\"clean_step\",\"session\":\"a\"}"));
  EXPECT_EQ(CleanedIds(retried), CleanedIds(twin_step));
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"a\"}"));
  Server reloaded = MakeServer(dir);
  EXPECT_EQ(Q2Sweep(&reloaded, "a"), Q2Sweep(&twin, "a"));
}

TEST(SessionStoreTest, DropRacingRehydrationLeavesNoStaleBaseline) {
  // A drop_session landing while a lazy rehydration replays the cleaning
  // log must leave nothing of the dropped session behind: a new session
  // of the same name starts without a durable baseline, so its first
  // save writes a full base instead of diffing against the dropped
  // session's (higher) durable version and writing nothing.
  const std::string dir = FreshDataDir("drop_vs_rehydrate");
  {
    Server first = MakeServer(dir);
    ParseOk(first.HandleLine(CreateRequest("x", 85)));
    for (int save = 0; save < 2; ++save) {
      ParseOk(first.HandleLine("{\"op\":\"clean_step\",\"session\":\"x\"}"));
      ParseOk(
          first.HandleLine("{\"op\":\"save_session\",\"session\":\"x\"}"));
    }
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/x.cplog"));

  Server server = MakeServer(dir);
  ASSERT_TRUE(FaultInjection::Configure("log.replay=sleep:400").ok());
  std::string queried;
  std::thread reader([&] {
    queried = server.HandleLine(
        "{\"op\":\"q2\",\"session\":\"x\",\"val_indices\":[0]}");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ParseOk(server.HandleLine("{\"op\":\"drop_session\",\"session\":\"x\"}"));
  reader.join();
  FaultInjection::Clear();
  EXPECT_NE(queried.find("\"Not found\""), std::string::npos) << queried;

  ParseOk(server.HandleLine(CreateRequest("x", 85)));
  ParseOk(server.HandleLine("{\"op\":\"clean_step\",\"session\":\"x\"}"));
  const JsonValue saved = ParseOk(
      server.HandleLine("{\"op\":\"save_session\",\"session\":\"x\"}"));
  EXPECT_EQ(saved.Find("state")->string_value(), "live");
  EXPECT_TRUE(std::filesystem::exists(dir + "/x.cpsession"));
  Server fresh = MakeServer(dir);
  const JsonValue stats = ParseOk(
      fresh.HandleLine("{\"op\":\"load_session\",\"session\":\"x\"}"));
  EXPECT_EQ(static_cast<int>(stats.Find("num_cleaned")->number_value()), 1);
}

TEST(SessionStoreTest, CorruptAuditVersionFailsLoad) {
  // The audit trail's version field is parsed strictly: a snapshot whose
  // record reads "12abc" (once accepted as 12) no longer loads.
  const std::string dir = FreshDataDir("bad_audit");
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("t", 92)));
    ParseOk(server.HandleLine(
        "{\"op\":\"clean_step\",\"session\":\"t\"}"));
    ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"t\"}"));
  }
  SessionStore store(StoreOptions(dir));
  ASSERT_TRUE(store.Load("t").ok());
  const std::string path = store.PathFor("t");
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string text = buffer.str();
  // The first audit record: "<step> <example> <version> <count> ...".
  const size_t audit = text.find("\naudit 1\n");
  ASSERT_NE(audit, std::string::npos) << text;
  const size_t record = audit + std::string("\naudit 1\n").size();
  const std::vector<std::string> fields =
      Split(text.substr(record, text.find('\n', record) - record), ' ');
  ASSERT_GE(fields.size(), 4u);
  const size_t version_at =
      record + fields[0].size() + 1 + fields[1].size() + 1;
  text.insert(version_at + fields[2].size(), "abc");
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();

  const Result<std::shared_ptr<ServeSession>> loaded = store.Load("t");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("unparseable version"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SessionStoreTest, SaveRacingDropNeverResurrectsTheSession) {
  // save_session serializes outside the lifecycle lock and commits under
  // it only while the registry still holds the instance it serialized. A
  // drop_session landing in between must win: no snapshot or log may be
  // written back for a name the client was told is gone.
  const std::string dir = FreshDataDir("save_vs_drop");
  Server server = MakeServer(dir);
  for (int round = 0; round < 12; ++round) {
    const std::string name = StrFormat("r%d", round);
    ParseOk(server.HandleLine(CreateRequest(name, 300 + round)));
    ParseOk(server.HandleLine(StrFormat(
        "{\"op\":\"clean_step\",\"session\":\"%s\"}", name.c_str())));
    if (round % 2 == 1) {
      // Odd rounds race a delta save (durable baseline in place) instead
      // of a first full snapshot.
      ParseOk(server.HandleLine(StrFormat(
          "{\"op\":\"save_session\",\"session\":\"%s\"}", name.c_str())));
      ParseOk(server.HandleLine(StrFormat(
          "{\"op\":\"clean_step\",\"session\":\"%s\"}", name.c_str())));
    }
    std::string saved;
    std::thread saver([&] {
      saved = server.HandleLine(StrFormat(
          "{\"op\":\"save_session\",\"session\":\"%s\"}", name.c_str()));
    });
    ParseOk(server.HandleLine(StrFormat(
        "{\"op\":\"drop_session\",\"session\":\"%s\"}", name.c_str())));
    saver.join();
    // The save either committed before the drop (which then deleted it)
    // or saw the drop and refused.
    if (saved.find("\"ok\":true") == std::string::npos) {
      EXPECT_NE(saved.find("\"Not found\""), std::string::npos) << saved;
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + name + ".cpsession"))
        << saved;
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + name + ".cplog"))
        << saved;
    const std::string after = server.HandleLine(StrFormat(
        "{\"op\":\"q2\",\"session\":\"%s\",\"val_indices\":[0]}",
        name.c_str()));
    EXPECT_NE(after.find("\"Not found\""), std::string::npos) << after;
  }
}

TEST(SessionStoreTest, SaveRacingEvictionKeepsEveryAcknowledgedStep) {
  // save_session racing the LRU sweep: the response is "live" (our save
  // committed first) or "evicted" (the sweep's save superseded ours), and
  // in every interleaving the rehydrated session holds every clean_step
  // that was acknowledged — in the order a never-persisted twin cleans.
  const std::string dir = FreshDataDir("save_vs_evict");
  Server server = MakeServer(dir, /*max_sessions=*/1);
  ParseOk(server.HandleLine(CreateRequest("a", 310)));
  std::vector<int> acknowledged;
  for (int round = 0; round < 6; ++round) {
    std::string saved;
    std::thread saver([&] {
      // A write racing the sweep may hit the detached instance and be
      // refused (never acknowledged); the retry lands on the live one.
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::string stepped =
            server.HandleLine("{\"op\":\"clean_step\",\"session\":\"a\"}");
        if (stepped.find("\"ok\":true") != std::string::npos) {
          const std::vector<int> ids = CleanedIds(ParseOk(stepped));
          acknowledged.insert(acknowledged.end(), ids.begin(), ids.end());
          break;
        }
        EXPECT_NE(stepped.find("\"Unavailable\""), std::string::npos)
            << stepped;
      }
      saved = server.HandleLine("{\"op\":\"save_session\",\"session\":\"a\"}");
    });
    // The decoy evicts "a" (the LRU, or rehydrated and LRU again).
    ParseOk(server.HandleLine(
        CreateRequest(StrFormat("decoy%d", round), 320 + round)));
    saver.join();
    const JsonValue result = ParseOk(saved);
    const std::string state = result.Find("state")->string_value();
    EXPECT_TRUE(state == "live" || state == "evicted") << saved;
  }
  ASSERT_FALSE(acknowledged.empty());

  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("a", 310)));
  const std::vector<int> twin_order = CleanedIds(ParseOk(twin.HandleLine(
      StrFormat("{\"op\":\"clean_step\",\"session\":\"a\",\"steps\":%d}",
                static_cast<int>(acknowledged.size())))));
  EXPECT_EQ(acknowledged, twin_order);
  // A fresh process over the same data dir rehydrates all of it.
  Server reloaded = MakeServer(dir);
  const JsonValue stats =
      ParseOk(reloaded.HandleLine("{\"op\":\"load_session\",\"session\":\"a\"}"));
  EXPECT_EQ(static_cast<size_t>(stats.Find("num_cleaned")->number_value()),
            acknowledged.size());
  EXPECT_EQ(Q2Sweep(&reloaded, "a"), Q2Sweep(&twin, "a"));
}

TEST(SessionStoreTest, MaxSessionsWithoutDataDirRefusesCreation) {
  ServerOptions options;
  options.max_sessions = 1;
  Server server(options);
  ParseOk(server.HandleLine(CreateRequest("only", 71)));
  const std::string response = server.HandleLine(CreateRequest("more", 72));
  EXPECT_NE(response.find("\"Unavailable\""), std::string::npos)
      << response;
  EXPECT_EQ(server.registry().size(), 1u);
}

}  // namespace
}  // namespace cpclean
