// Google-benchmark suite over the CP query engines (paper Figure 4):
// brute force (exponential), SS naive, SS-DC, SS-DC-MC, MM, FastQ2, and
// witness extraction (explain).
// Run with --benchmark_filter=... to slice.

#include <benchmark/benchmark.h>

#include "cleaning/cp_clean.h"
#include "common/rng.h"
#include "core/brute_force.h"
#include "core/fast_q2.h"
#include "core/mm.h"
#include "core/similarity.h"
#include "core/ss.h"
#include "core/ss1.h"
#include "core/ss_dc.h"
#include "core/ss_dc_mc.h"
#include "core/witness.h"
#include "eval/experiment.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

IncompleteDataset MakeDataset(int n, int m, int num_labels, uint64_t seed,
                              int dim = 3) {
  Rng rng(seed);
  IncompleteDataset dataset(num_labels);
  for (int i = 0; i < n; ++i) {
    IncompleteExample ex;
    ex.label = i < num_labels ? i : rng.NextInt(0, num_labels - 1);
    const int candidates = 1 + static_cast<int>(rng.NextUint64(
                                   static_cast<uint64_t>(m)));
    for (int j = 0; j < candidates; ++j) {
      std::vector<double> c(static_cast<size_t>(dim));
      for (auto& v : c) v = rng.NextDouble(-2, 2);
      ex.candidates.push_back(std::move(c));
    }
    CP_CHECK(dataset.AddExample(std::move(ex)).ok());
  }
  return dataset;
}

std::vector<double> TestPoint(uint64_t seed) {
  Rng rng(seed ^ 0x1234);
  return {rng.NextDouble(-2, 2), rng.NextDouble(-2, 2), rng.NextDouble(-2, 2)};
}

void BM_BruteForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IncompleteDataset dataset = MakeDataset(n, 2, 2, 7);
  const auto t = TestPoint(7);
  NegativeEuclideanKernel kernel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceCount(dataset, t, kernel, 3));
  }
  state.SetComplexityN(n);
}
// Exponential: keep N tiny.
BENCHMARK(BM_BruteForce)->DenseRange(4, 14, 2)->Complexity();

template <typename Fn>
void RunPolyBench(benchmark::State& state, Fn&& fn) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const IncompleteDataset dataset = MakeDataset(n, m, 2, 7);
  const auto t = TestPoint(7);
  NegativeEuclideanKernel kernel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(dataset, t, kernel, k));
  }
  state.SetComplexityN(n * m);
}

void BM_SsNaive(benchmark::State& state) {
  RunPolyBench(state, [](const auto& d, const auto& t, const auto& kern,
                         int k) {
    return SsCount<DoubleSemiring, true>(d, t, kern, k);
  });
}
BENCHMARK(BM_SsNaive)
    ->ArgsProduct({{50, 100, 200, 400}, {3}, {3}})
    ->Complexity();

void BM_SsDc(benchmark::State& state) {
  RunPolyBench(state, [](const auto& d, const auto& t, const auto& kern,
                         int k) {
    return SsDcCount<DoubleSemiring, true>(d, t, kern, k);
  });
}
BENCHMARK(BM_SsDc)
    ->ArgsProduct({{50, 100, 200, 400, 800, 1600}, {3}, {1, 3, 7}})
    ->Complexity();

void BM_SsDcMc(benchmark::State& state) {
  RunPolyBench(state, [](const auto& d, const auto& t, const auto& kern,
                         int k) {
    return SsDcMcCount<DoubleSemiring, true>(d, t, kern, k);
  });
}
BENCHMARK(BM_SsDcMc)->ArgsProduct({{100, 400, 1600}, {3}, {3}});

void BM_Mm(benchmark::State& state) {
  RunPolyBench(state,
               [](const auto& d, const auto& t, const auto& kern, int k) {
                 return MmCheck(d, t, kern, k);
               });
}
BENCHMARK(BM_Mm)
    ->ArgsProduct({{50, 100, 200, 400, 800, 1600, 3200}, {3}, {3}})
    ->Complexity();

void BM_Ss1(benchmark::State& state) {
  RunPolyBench(state,
               [](const auto& d, const auto& t, const auto& kern, int k) {
                 (void)k;
                 return Ss1Count<DoubleSemiring, true>(d, t, kern);
               });
}
BENCHMARK(BM_Ss1)->ArgsProduct({{100, 400, 1600}, {3}, {1}});

void BM_FastQ2_FullScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IncompleteDataset dataset = MakeDataset(n, 3, 2, 7);
  const auto t = TestPoint(7);
  NegativeEuclideanKernel kernel;
  FastQ2 q2(&dataset, 3, /*epsilon=*/0.0);
  q2.SetTestPoint(t, kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q2.Fractions());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FastQ2_FullScan)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_FastQ2_Truncated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IncompleteDataset dataset = MakeDataset(n, 3, 2, 7);
  const auto t = TestPoint(7);
  NegativeEuclideanKernel kernel;
  FastQ2 q2(&dataset, 3, /*epsilon=*/1e-9);
  q2.SetTestPoint(t, kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q2.Fractions());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FastQ2_Truncated)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

std::vector<double> TestPointDim(uint64_t seed, int dim) {
  Rng rng(seed ^ 0x4321);
  std::vector<double> t(static_cast<size_t>(dim));
  for (auto& v : t) v = rng.NextDouble(-2, 2);
  return t;
}

void BM_FastQ2_SetTestPoint(benchmark::State& state) {
  // The per-validation-point setup cost of the CPClean inner loop: kernel
  // evaluation over every candidate plus the similarity ordering.
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const IncompleteDataset dataset = MakeDataset(n, 3, 2, 7, dim);
  const std::vector<double> t = TestPointDim(7, dim);
  NegativeEuclideanKernel kernel;
  FastQ2 q2(&dataset, 3, 1e-9);
  for (auto _ : state) {
    q2.SetTestPoint(t, kernel);
    benchmark::DoNotOptimize(q2.TopKFloor());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FastQ2_SetTestPoint)
    ->ArgsProduct({{256, 1024, 4096}, {4, 16, 64}})
    ->Complexity();

void BM_SimilarityMatrix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const IncompleteDataset dataset = MakeDataset(n, 3, 2, 11, dim);
  const std::vector<double> t = TestPointDim(11, dim);
  NegativeEuclideanKernel kernel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityMatrix(dataset, t, kernel));
  }
}
BENCHMARK(BM_SimilarityMatrix)->ArgsProduct({{1024}, {4, 16, 64}});

void BM_ExplainPrediction(benchmark::State& state) {
  // A served `explain`: one scoring sweep, the Q2 support, the top-K floor
  // prune, and greedy deletion decided on index lists. Binary, k = 3,
  // cycling over 16 test points.
  const int n = static_cast<int>(state.range(0));
  const IncompleteDataset dataset = MakeDataset(n, 3, 2, 7);
  std::vector<std::vector<double>> points;
  for (uint64_t seed = 0; seed < 16; ++seed) points.push_back(TestPoint(seed));
  NegativeEuclideanKernel kernel;
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExplainPrediction(
        dataset, points[next++ % points.size()], kernel, 3));
  }
}
BENCHMARK(BM_ExplainPrediction)->Arg(4096)->Unit(benchmark::kMicrosecond);

PreparedExperiment MakeSelectionExperiment(int rows) {
  ExperimentConfig config;
  config.dataset.name = "bench";
  config.dataset.synthetic.num_rows = rows + 40 + 40;
  config.dataset.synthetic.num_numeric = 6;
  config.dataset.synthetic.num_categorical = 0;
  config.dataset.synthetic.noise_sigma = 0.3;
  config.dataset.synthetic.seed = 17;
  config.dataset.missing_rate = 0.2;
  config.dataset.val_size = 40;
  config.dataset.test_size = 40;
  config.k = 3;
  config.seed = 17;
  static NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

void BM_CpClean_Selection(benchmark::State& state) {
  // Algorithm 3's greedy selection: a few cleaning steps of the full
  // session loop (FastSelectionScores over every validation point plus the
  // certainty refresh), the end-to-end hot path this library exists for.
  const int rows = static_cast<int>(state.range(0));
  const PreparedExperiment prepared = MakeSelectionExperiment(rows);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.max_cleaned = 3;
  options.track_test_accuracy = false;
  options.stop_when_all_certain = false;
  for (auto _ : state) {
    CleaningSession session(&prepared.task, &kernel, options);
    benchmark::DoNotOptimize(session.RunCpClean());
  }
}
BENCHMARK(BM_CpClean_Selection)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

/// The first dirty tuple that can enter the top-K in some world (pruned
/// tuples never reach the pinned sweep in the selection loop).
int SweepTarget(const IncompleteDataset& dataset, const FastQ2& q2) {
  const double floor = q2.TopKFloor();
  for (const int i : dataset.DirtyExamples()) {
    if (q2.MaxSimilarity(i) >= floor) return i;
  }
  CP_LOG(Fatal) << "no unpruned dirty tuple";
  return -1;
}

void BM_FastQ2_PinnedSweep(benchmark::State& state) {
  // The CPClean inner loop: one tuple's pinned entropies in one sweep.
  const int n = static_cast<int>(state.range(0));
  IncompleteDataset dataset = MakeDataset(n, 3, 2, 7);
  const auto t = TestPoint(7);
  NegativeEuclideanKernel kernel;
  FastQ2 q2(&dataset, 3, 1e-9);
  q2.SetTestPoint(t, kernel);
  const int target = SweepTarget(dataset, q2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q2.EntropyPinnedSweep(target).data());
  }
}
BENCHMARK(BM_FastQ2_PinnedSweep)->Arg(256)->Arg(1024);

void BM_FastQ2_PinnedPerCandidate(benchmark::State& state) {
  // Reference for the sweep: one pinned query per candidate of the same
  // tuple.
  const int n = static_cast<int>(state.range(0));
  IncompleteDataset dataset = MakeDataset(n, 3, 2, 7);
  const auto t = TestPoint(7);
  NegativeEuclideanKernel kernel;
  FastQ2 q2(&dataset, 3, 1e-9);
  q2.SetTestPoint(t, kernel);
  const int target = SweepTarget(dataset, q2);
  for (auto _ : state) {
    for (int j = 0; j < dataset.num_candidates(target); ++j) {
      benchmark::DoNotOptimize(q2.FractionsPinned(target, j));
    }
  }
}
BENCHMARK(BM_FastQ2_PinnedPerCandidate)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace cpclean

#include "bench_report.h"

int main(int argc, char** argv) {
  return cpclean::benchreport::RunBenchmarksWithReport(
      argc, argv, "BENCH_cp_queries.json");
}
