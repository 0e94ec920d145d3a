// Storage benchmarks: what the append-only cleaning log buys.
// BM_Save_FullSnapshot re-serializes and rewrites the whole session per
// save (the pre-log behavior); BM_Save_LogAppend saves the same one-step
// delta through the cleaning log — its cost must be independent of dataset
// size. BM_Rehydrate_Replay measures base + log rehydration, and
// BM_Scan_Ram times one full similarity sweep over the in-RAM candidate
// slab.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/string_util.h"
#include "core/similarity.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"
#include "serve/session_registry.h"
#include "serve/session_store.h"

namespace {

using cpclean::BuildTaskFromSpec;
using cpclean::CleaningTask;
using cpclean::IncompleteDataset;
using cpclean::IncompleteExample;
using cpclean::JsonValue;
using cpclean::MakeKernel;
using cpclean::ParseJson;
using cpclean::ServeSession;
using cpclean::ServeSessionOptions;
using cpclean::ServeSessionOptionsFromRequest;
using cpclean::SessionStore;
using cpclean::SessionStoreOptions;
using cpclean::SimilarityKernel;
using cpclean::SimilarityScores;
using cpclean::StrFormat;

/// A fresh empty data dir for one benchmark run.
std::string FreshDataDir(const std::string& leaf) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("cpclean_bench_" + leaf))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SessionStoreOptions StoreOptions(const std::string& dir) {
  SessionStoreOptions options;
  options.data_dir = dir;
  options.default_cache_capacity = 0;
  return options;
}

JsonValue SpecFor(const std::string& name, int train_rows) {
  return ParseJson(
             StrFormat("{\"session\":\"%s\",\"source\":\"synthetic\","
                       "\"dataset\":\"bench\",\"train_rows\":%d,"
                       "\"val_size\":6,\"test_size\":6,\"seed\":17,"
                       "\"numeric\":6,\"categorical\":0,\"noise_sigma\":0.4,"
                       "\"missing_rate\":0.2,\"k\":3}",
                       name.c_str(), train_rows))
      .value();
}

/// Builds (untimed) a live session over `train_rows` rows. Every
/// benchmark builds its own: a session carries its cleaning progress and
/// its durable baseline, and neither may leak into the next benchmark.
std::shared_ptr<ServeSession> MakeSession(int train_rows) {
  const std::string name = StrFormat("s%d", train_rows);
  const JsonValue spec = SpecFor(name, train_rows);
  const ServeSessionOptions options =
      ServeSessionOptionsFromRequest(spec, 0).value();
  CleaningTask task = BuildTaskFromSpec(spec).value();
  return ServeSession::Make(name, std::move(task), options, spec).value();
}

/// The pre-log save: serialize the whole session and rewrite its snapshot
/// file atomically, every time. Each timed Save follows an untimed
/// cleaning step and, with a zero compaction threshold, writes a full
/// base. Cost scales with the dataset.
void BM_Save_FullSnapshot(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const std::string dir = FreshDataDir(StrFormat("full%d", rows));
  SessionStoreOptions options = StoreOptions(dir);
  options.log_compact_bytes = 0;
  SessionStore store(options);
  const std::shared_ptr<ServeSession> session = MakeSession(rows);
  for (auto _ : state) {
    state.PauseTiming();
    benchmark::DoNotOptimize(session->CleanStep(1).ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.Save(*session).ok());
  }
  std::error_code ec;
  state.counters["snapshot_bytes"] = static_cast<double>(
      std::filesystem::file_size(dir + "/" + session->name() + ".cpsession",
                                 ec));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Save_FullSnapshot)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Iterations(8);

/// The O(delta) save: one cleaning step (untimed) then a Save that
/// appends exactly that step's record to the log. Timed cost must not
/// grow with `rows`.
void BM_Save_LogAppend(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const std::string dir = FreshDataDir(StrFormat("delta%d", rows));
  SessionStore store(StoreOptions(dir));
  const std::shared_ptr<ServeSession> session = MakeSession(rows);
  // Establish the durable baseline so every timed Save is a delta.
  if (!store.Save(*session).ok()) {
    state.SkipWithError("baseline save failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    benchmark::DoNotOptimize(session->CleanStep(1).ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.Save(*session).ok());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Save_LogAppend)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Iterations(32);

/// Rehydration of a session persisted as base snapshot + a 16-record
/// cleaning log: parse, replay, rebuild, verify.
void BM_Rehydrate_Replay(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const std::string dir = FreshDataDir(StrFormat("replay%d", rows));
  SessionStore store(StoreOptions(dir));
  const std::shared_ptr<ServeSession> session = MakeSession(rows);
  bool ok = store.Save(*session).ok();
  for (int i = 0; ok && i < 16; ++i) {
    ok = session->CleanStep(1).ok() && store.Save(*session).ok();
  }
  if (!ok) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Load(session->name()).ok());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Rehydrate_Replay)->Arg(1000)->Arg(4000)->Iterations(8);

IncompleteDataset ScanDataset(int examples, int dim) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> uniform(-2.0, 2.0);
  IncompleteDataset dataset(2);
  for (int i = 0; i < examples; ++i) {
    IncompleteExample ex;
    ex.label = i & 1;
    for (int c = 0; c < 2; ++c) {
      std::vector<double> x(static_cast<size_t>(dim));
      for (double& v : x) v = uniform(rng);
      ex.candidates.push_back(std::move(x));
    }
    (void)dataset.AddExample(std::move(ex));
  }
  return dataset;
}

void BM_Scan_Ram(benchmark::State& state) {
  const IncompleteDataset dataset =
      ScanDataset(static_cast<int>(state.range(0)), 16);
  const std::unique_ptr<SimilarityKernel> kernel =
      MakeKernel(cpclean::KernelKind::kNegativeEuclidean);
  std::vector<double> t(static_cast<size_t>(dataset.dim()), 0.25);
  std::vector<double> out(static_cast<size_t>(dataset.total_candidates()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimilarityScores(dataset, t, *kernel, out.data()));
  }
  state.counters["rows"] = static_cast<double>(dataset.total_candidates());
}
BENCHMARK(BM_Scan_Ram)->Arg(2048)->Arg(16384);

}  // namespace

int main(int argc, char** argv) {
  return cpclean::benchreport::RunBenchmarksWithReport(argc, argv,
                                                      "BENCH_store.json");
}
