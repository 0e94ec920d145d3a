// The append-only cleaning log behind save_session and the eviction
// sweep: a save after a full snapshot appends only the delta (the base
// file's bytes never change), an unchanged session's save touches no
// disk at all, rehydration replays base + log bit-identically, the log
// folds into a fresh base when it outgrows the compaction threshold
// (also under concurrent readers), torn tails recover, mid-log damage
// fails loudly, drop/startup-sweep remove logs, and a durable session
// answers like a memory-only one through clean_run and a restart.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "serve/server.h"
#include "serve/session_store.h"
#include "tests/serve/serve_test_util.h"

namespace cpclean {
namespace {

using serve_test::ParseOk;

constexpr int kTrain = 30;
constexpr int kVal = 6;
constexpr int kK = 3;

std::string CreateRequest(const std::string& name, int seed) {
  return StrFormat(
      "{\"op\":\"create_session\",\"session\":\"%s\",\"source\":"
      "\"synthetic\",\"dataset\":\"store\",\"train_rows\":%d,\"val_size\":%d,"
      "\"test_size\":6,\"seed\":%d,\"numeric\":4,\"categorical\":0,"
      "\"noise_sigma\":0.3,\"missing_rate\":0.25,\"k\":%d}",
      name.c_str(), kTrain, kVal, seed, kK);
}

/// A fresh empty data dir under the test tmpdir.
std::string FreshDataDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/cpclean_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Server MakeServer(const std::string& data_dir, size_t max_sessions = 0) {
  ServerOptions options;
  options.data_dir = data_dir;
  options.max_sessions = max_sessions;
  return Server(options);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Serialized q2 responses (exact JSON bits) for every validation index.
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

void CleanSteps(Server* server, const std::string& name, int steps) {
  ParseOk(server->HandleLine(
      StrFormat("{\"op\":\"clean_step\",\"session\":\"%s\",\"steps\":%d}",
                name.c_str(), steps)));
}

void Save(Server* server, const std::string& name) {
  ParseOk(server->HandleLine(StrFormat(
      "{\"op\":\"save_session\",\"session\":\"%s\"}", name.c_str())));
}

/// Current value of a (process-global, monotone) store counter, via the
/// in-process metrics op.
double Counter(Server* server, const std::string& name) {
  const JsonValue metrics = ParseOk(server->HandleLine("{\"op\":\"metrics\"}"));
  const JsonValue* counter = metrics.Find("counters")->Find(name);
  return counter == nullptr ? 0.0 : counter->number_value();
}

TEST(StoreLogTest, DeltaSaveAppendsLogAndLeavesBaseUntouched) {
  const std::string dir = FreshDataDir("log_delta");
  constexpr int kSeed = 141;

  // The never-persisted twin is the ground truth for every later compare.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("s", kSeed)));
  CleanSteps(&twin, "s", 2);
  const std::vector<std::string> twin_mid = Q2Sweep(&twin, "s");

  const std::string base_path = dir + "/s.cpsession";
  const std::string log_path = dir + "/s.cplog";
  std::string base_bytes;
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("s", kSeed)));
    const double appended_before = Counter(&server, "store.log_appended_bytes");

    // First save: the full base snapshot; no log yet.
    Save(&server, "s");
    base_bytes = ReadFile(base_path);
    ASSERT_FALSE(base_bytes.empty());
    EXPECT_FALSE(std::filesystem::exists(log_path));

    // Two cleaning steps, then save again: the base file's bytes must not
    // change — only the log grows, by exactly the two fix records.
    CleanSteps(&server, "s", 2);
    Save(&server, "s");
    EXPECT_EQ(ReadFile(base_path), base_bytes);
    ASSERT_TRUE(std::filesystem::exists(log_path));
    const std::string log_bytes = ReadFile(log_path);
    EXPECT_NE(log_bytes.find("cpclean-log-v1"), std::string::npos);
    EXPECT_EQ(Counter(&server, "store.log_appended_bytes"),
              appended_before + log_bytes.size());

    // An unchanged session's save is a disk-less no-op: same base, same
    // log, nothing appended.
    Save(&server, "s");
    EXPECT_EQ(ReadFile(base_path), base_bytes);
    EXPECT_EQ(ReadFile(log_path), log_bytes);
  }

  // Restart: rehydration replays base + log and matches the twin bit for
  // bit, then keeps cleaning in the twin's exact order.
  Server second = MakeServer(dir);
  const double replayed_before = Counter(&second, "store.log_replayed_records");
  EXPECT_EQ(Q2Sweep(&second, "s"), twin_mid);
  EXPECT_EQ(Counter(&second, "store.log_replayed_records"),
            replayed_before + 2);
  const std::string twin_rest =
      ParseOk(twin.HandleLine("{\"op\":\"clean_run\",\"session\":\"s\"}"))
          .Find("cleaned")
          ->Dump();
  EXPECT_EQ(
      ParseOk(second.HandleLine("{\"op\":\"clean_run\",\"session\":\"s\"}"))
          .Find("cleaned")
          ->Dump(),
      twin_rest);
  EXPECT_EQ(Q2Sweep(&second, "s"), Q2Sweep(&twin, "s"));
}

TEST(StoreLogTest, LogCompactsIntoFreshBaseAtThreshold) {
  const std::string dir = FreshDataDir("log_compact");
  constexpr int kSeed = 142;
  ServerOptions options;
  options.data_dir = dir;
  // Small enough that a few one-fix deltas overflow it, large enough that
  // the first delta is a genuine log append.
  options.log_compact_bytes = 80;
  Server server(options);
  ParseOk(server.HandleLine(CreateRequest("s", kSeed)));
  Save(&server, "s");

  const std::string base_path = dir + "/s.cpsession";
  const std::string log_path = dir + "/s.cplog";
  const std::string base_v0 = ReadFile(base_path);
  const double compactions_before = Counter(&server, "store.compactions");
  bool log_seen = false;
  bool compacted = false;
  int steps = 0;
  for (int i = 0; i < 6 && !compacted; ++i) {
    CleanSteps(&server, "s", 1);
    ++steps;
    Save(&server, "s");
    if (std::filesystem::exists(log_path)) {
      log_seen = true;
      EXPECT_EQ(ReadFile(base_path), base_v0);
    } else if (log_seen) {
      // The log existed and is now gone: this save folded it into a fresh
      // base snapshot.
      compacted = true;
      EXPECT_NE(ReadFile(base_path), base_v0);
    }
  }
  EXPECT_TRUE(log_seen);
  ASSERT_TRUE(compacted);
  EXPECT_GE(Counter(&server, "store.compactions"), compactions_before + 1);

  // The compacted state rehydrates bit-identically to a twin that cleaned
  // the same number of steps without ever persisting.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("s", kSeed)));
  CleanSteps(&twin, "s", steps);
  Server reloaded = MakeServer(dir);
  EXPECT_EQ(Q2Sweep(&reloaded, "s"), Q2Sweep(&twin, "s"));
}

TEST(StoreLogTest, EvictionSweepAppendsDeltaOnly) {
  const std::string dir = FreshDataDir("log_evict");
  constexpr int kSeed = 143;
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("a", kSeed)));
  CleanSteps(&twin, "a", 1);
  const std::vector<std::string> twin_mid = Q2Sweep(&twin, "a");

  Server server = MakeServer(dir, /*max_sessions=*/1);
  ParseOk(server.HandleLine(CreateRequest("a", kSeed)));
  Save(&server, "a");  // establishes the durable baseline
  const std::string base_bytes = ReadFile(dir + "/a.cpsession");
  CleanSteps(&server, "a", 1);

  // Creating the decoy evicts "a" (the LRU). With a durable baseline in
  // place the sweep's save is an O(delta) log append, not a full rewrite.
  ParseOk(server.HandleLine(CreateRequest("decoy", 991)));
  EXPECT_EQ(ReadFile(dir + "/a.cpsession"), base_bytes);
  EXPECT_TRUE(std::filesystem::exists(dir + "/a.cplog"));

  // Touching "a" rehydrates it (replaying the one-fix log) bit-identically.
  EXPECT_EQ(Q2Sweep(&server, "a"), twin_mid);
}

TEST(StoreLogTest, TornTailIsDroppedOnRehydration) {
  const std::string dir = FreshDataDir("log_torn");
  constexpr int kSeed = 144;
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("s", kSeed)));
  CleanSteps(&twin, "s", 2);

  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("s", kSeed)));
    Save(&server, "s");
    CleanSteps(&server, "s", 2);
    Save(&server, "s");
  }
  // A crash mid-append leaves a torn final line. It was never acked, so
  // rehydration must drop it and serve the state up to the last complete
  // record.
  const std::string log_path = dir + "/s.cplog";
  std::ofstream torn(log_path, std::ios::binary | std::ios::app);
  torn << "fix 99 1";  // no newline, no checksum
  torn.close();

  Server reloaded = MakeServer(dir);
  EXPECT_EQ(Q2Sweep(&reloaded, "s"), Q2Sweep(&twin, "s"));
  // And the next save truncated the tail before appending, leaving a log
  // that parses clean.
  CleanSteps(&reloaded, "s", 1);
  Save(&reloaded, "s");
  EXPECT_EQ(ReadFile(log_path).find("fix 99 1"), std::string::npos);
  CleanSteps(&twin, "s", 1);
  Server again = MakeServer(dir);
  EXPECT_EQ(Q2Sweep(&again, "s"), Q2Sweep(&twin, "s"));
}

TEST(StoreLogTest, MidLogCorruptionFailsRehydrationLoudly) {
  const std::string dir = FreshDataDir("log_corrupt");
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("s", 145)));
    Save(&server, "s");
    CleanSteps(&server, "s", 2);
    Save(&server, "s");
  }
  // Flip one digit inside the FIRST of the two checksummed records — not
  // the tail, so this is damage, not a torn append.
  const std::string log_path = dir + "/s.cplog";
  std::string log = ReadFile(log_path);
  const size_t pos = log.find("fix ");
  ASSERT_NE(pos, std::string::npos);
  log[pos + 4] = log[pos + 4] == '1' ? '2' : '1';
  WriteFile(log_path, log);

  Server reloaded = MakeServer(dir);
  const std::string response = reloaded.HandleLine(
      "{\"op\":\"q2\",\"session\":\"s\",\"val_indices\":[0]}");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("IO error"), std::string::npos) << response;
}

TEST(StoreLogTest, DropRemovesLogAndStartupSweepsOrphans) {
  const std::string dir = FreshDataDir("log_drop");
  Server server = MakeServer(dir);
  ParseOk(server.HandleLine(CreateRequest("s", 146)));
  Save(&server, "s");
  CleanSteps(&server, "s", 1);
  Save(&server, "s");
  ASSERT_TRUE(std::filesystem::exists(dir + "/s.cplog"));
  ParseOk(server.HandleLine("{\"op\":\"drop_session\",\"session\":\"s\"}"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/s.cpsession"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/s.cplog"));

  // A log with no base snapshot (the delete-crashed-between-unlinks case)
  // is reclaimed by the next startup sweep, and the name reads as absent.
  WriteFile(dir + "/ghost.cplog", "cpclean-log-v1\n");
  Server swept = MakeServer(dir);
  EXPECT_FALSE(std::filesystem::exists(dir + "/ghost.cplog"));
  EXPECT_NE(swept.HandleLine(
                    "{\"op\":\"load_session\",\"session\":\"ghost\"}")
                .find("\"Not found\""),
            std::string::npos);
}

TEST(StoreLogTest, DurableSessionMatchesMemoryOnlyThroughRestart) {
  const std::string dir = FreshDataDir("log_durable");
  constexpr int kSeed = 147;
  Server memory_only = MakeServer("");
  ParseOk(memory_only.HandleLine(CreateRequest("s", kSeed)));
  Server durable = MakeServer(dir);
  ParseOk(durable.HandleLine(CreateRequest("s", kSeed)));
  EXPECT_EQ(Q2Sweep(&durable, "s"), Q2Sweep(&memory_only, "s"));

  // Clean to completion: identical order, identical final answers.
  const std::string want_cleaned =
      ParseOk(memory_only.HandleLine(
                  "{\"op\":\"clean_run\",\"session\":\"s\"}"))
          .Find("cleaned")
          ->Dump();
  EXPECT_EQ(ParseOk(durable.HandleLine(
                        "{\"op\":\"clean_run\",\"session\":\"s\"}"))
                .Find("cleaned")
                ->Dump(),
            want_cleaned);
  EXPECT_EQ(Q2Sweep(&durable, "s"), Q2Sweep(&memory_only, "s"));

  // Save and restart: the rehydrated session matches too.
  Save(&durable, "s");
  Server reloaded = MakeServer(dir);
  EXPECT_EQ(Q2Sweep(&reloaded, "s"), Q2Sweep(&memory_only, "s"));
}

TEST(StoreLogTest, PersistedSpecWithThreadCountRehydratesLikeWithout) {
  // Served sessions always run on the global pool, so "num_threads" is an
  // unknown key: the spec persists it, and rehydration ignores it and
  // answers like a session created without it.
  const std::string dir = FreshDataDir("log_num_threads");
  constexpr int kSeed = 149;
  std::string with_threads = CreateRequest("s", kSeed);
  with_threads.insert(with_threads.size() - 1, ",\"num_threads\":2");
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(with_threads));
    CleanSteps(&server, "s", 2);
    Save(&server, "s");
  }
  ASSERT_NE(ReadFile(dir + "/s.cpsession").find("\"num_threads\":2"),
            std::string::npos);
  Server plain = MakeServer("");
  ParseOk(plain.HandleLine(CreateRequest("s", kSeed)));
  CleanSteps(&plain, "s", 2);
  Server reloaded = MakeServer(dir);
  for (const char* op : {"q2", "predict", "explain"}) {
    for (int v = 0; v < kVal; ++v) {
      const std::string line = StrFormat(
          "{\"op\":\"%s\",\"session\":\"s\",\"val_indices\":[%d]}", op, v);
      EXPECT_EQ(ParseOk(reloaded.HandleLine(line)).Dump(),
                ParseOk(plain.HandleLine(line)).Dump())
          << op << " " << v;
    }
  }
}

TEST(StoreLogTest, CompactionUnderConcurrentReadsServesEveryQuery) {
  const std::string dir = FreshDataDir("log_concurrent");
  constexpr int kSeed = 148;
  ServerOptions options;
  options.data_dir = dir;
  options.log_compact_bytes = 80;  // compacts every few saves
  Server server(options);
  ParseOk(server.HandleLine(CreateRequest("s", kSeed)));
  Save(&server, "s");

  // Readers hammer q2 while the writer interleaves clean_step + save —
  // driving the log through append and compaction under load. Every read
  // must succeed; failures are tallied and asserted after the join.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&server, &stop, &failures, &reads, r] {
      const std::string req = StrFormat(
          "{\"op\":\"q2\",\"session\":\"s\",\"val_indices\":[%d]}", r % kVal);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string response = server.HandleLine(req);
        if (response.find("\"ok\":true") == std::string::npos) {
          failures.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  int steps = 0;
  for (int i = 0; i < 6; ++i) {
    CleanSteps(&server, "s", 1);
    ++steps;
    Save(&server, "s");
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0);

  // The persisted end state is the twin's.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("s", kSeed)));
  CleanSteps(&twin, "s", steps);
  Server reloaded = MakeServer(dir);
  EXPECT_EQ(Q2Sweep(&reloaded, "s"), Q2Sweep(&twin, "s"));
}

}  // namespace
}  // namespace cpclean
