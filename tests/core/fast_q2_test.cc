// Validates the production FastQ2 engine against the reference SS-DC
// engine (itself validated against brute force), including the pinned
// "what if candidate j is the truth" queries that power CPClean.

#include "core/fast_q2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/stats.h"
#include "core/brute_force.h"
#include "core/ss_dc.h"
#include "knn/kernel.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::MakeRandomTestPoint;
using testing_util::RandomDatasetSpec;

class FastQ2Test : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(FastQ2Test, MatchesReferenceEngine) {
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const int num_labels = std::get<2>(GetParam());

  RandomDatasetSpec spec;
  spec.num_examples = 12;
  spec.max_candidates = 3;
  spec.num_labels = num_labels;
  spec.seed = static_cast<uint64_t>(seed);
  IncompleteDataset dataset = MakeRandomDataset(spec);
  const std::vector<double> t =
      MakeRandomTestPoint(spec.dim, static_cast<uint64_t>(seed));
  NegativeEuclideanKernel kernel;

  FastQ2 fast(&dataset, k, /*epsilon=*/0.0);  // full scan, no truncation
  fast.SetTestPoint(t, kernel);
  const std::vector<double> got = fast.Fractions();
  const std::vector<double> want =
      SsDcCount<DoubleSemiring, true>(dataset, t, kernel, k).Fractions();
  ASSERT_EQ(got.size(), want.size());
  for (size_t y = 0; y < want.size(); ++y) {
    EXPECT_NEAR(got[y], want[y], 1e-9) << "label " << y;
  }

  // Early termination changes fractions only within epsilon.
  FastQ2 truncated(&dataset, k, /*epsilon=*/1e-9);
  truncated.SetTestPoint(t, kernel);
  const std::vector<double> approx = truncated.Fractions();
  for (size_t y = 0; y < want.size(); ++y) {
    EXPECT_NEAR(approx[y], want[y], 1e-6) << "label " << y;
  }

  // Pinned queries match SS-DC on the explicitly collapsed dataset, and
  // queries are independent (internal state restores between calls).
  for (int i : {0, 3, 7}) {
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      const std::vector<double> pinned = truncated.FractionsPinned(i, j);
      IncompleteDataset collapsed = dataset;
      collapsed.FixExample(i, j);
      const std::vector<double> expect =
          SsDcCount<DoubleSemiring, true>(collapsed, t, kernel, k).Fractions();
      for (size_t y = 0; y < expect.size(); ++y) {
        EXPECT_NEAR(pinned[y], expect[y], 1e-6)
            << "pin (" << i << "," << j << ") label " << y;
      }
    }
  }
  // Re-running the unpinned query still matches (state restoration).
  const std::vector<double> again = truncated.Fractions();
  for (size_t y = 0; y < want.size(); ++y) {
    EXPECT_NEAR(again[y], want[y], 1e-6);
  }
}

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(double));
  return b;
}

TEST_P(FastQ2Test, EntropyPinnedSweepBitMatchesPerCandidateCalls) {
  // The shared-prefix sweep must reproduce m separate EntropyPinned(i, j)
  // calls bit for bit — including under aggressive early termination
  // (which can end inside the shared prefix) — and must leave the engine
  // state pristine so later queries on the same engine are unaffected.
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const int num_labels = std::get<2>(GetParam());

  RandomDatasetSpec spec;
  spec.num_examples = 12;
  spec.max_candidates = 3;
  spec.num_labels = num_labels;
  spec.seed = static_cast<uint64_t>(seed);
  IncompleteDataset dataset = MakeRandomDataset(spec);
  const std::vector<double> t =
      MakeRandomTestPoint(spec.dim, static_cast<uint64_t>(seed));
  NegativeEuclideanKernel kernel;

  for (const double epsilon : {0.0, 1e-9, 1e-3}) {
    FastQ2 sweep_engine(&dataset, k, epsilon);
    FastQ2 ref_engine(&dataset, k, epsilon);
    sweep_engine.SetTestPoint(t, kernel);
    ref_engine.SetTestPoint(t, kernel);
    for (int i = 0; i < dataset.num_examples(); ++i) {
      const int m = dataset.num_candidates(i);
      const std::vector<double> got = sweep_engine.EntropyPinnedSweep(i);
      ASSERT_EQ(static_cast<int>(got.size()), m);
      for (int j = 0; j < m; ++j) {
        const double want = ref_engine.EntropyPinned(i, j);
        EXPECT_EQ(Bits(got[static_cast<size_t>(j)]), Bits(want))
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
      }
    }
    // State restoration: the engine that ran every sweep must answer
    // per-candidate queries (and repeat sweeps) with the same bits.
    for (const int i : {0, 5, 11}) {
      const std::vector<double> again = sweep_engine.EntropyPinnedSweep(i);
      for (int j = 0; j < dataset.num_candidates(i); ++j) {
        EXPECT_EQ(Bits(again[static_cast<size_t>(j)]),
                  Bits(sweep_engine.EntropyPinned(i, j)))
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastQ2Test,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(1, 3, 5),
                                            ::testing::Values(2, 3)));

class FastQ2SweepShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FastQ2SweepShapeTest, SpreadCandidatesBitMatchPerCandidateCalls) {
  // The sweep walks the scan once and replays each candidate from its own
  // entry. These shapes reach every branch of that walk: a tuple's
  // candidates spread through the scan with other tuples' entries between
  // them (40 examples, up to 8 candidates), single-candidate tuples, mass
  // targets the walk reaches between two of the pinned tuple's entries
  // (epsilon up to 0.1), and k = 16, whose width runs the dynamic fallback.
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());

  RandomDatasetSpec spec;
  spec.num_examples = 40;
  spec.max_candidates = 8;
  spec.num_labels = 2 + seed % 2;
  spec.tie_prob = seed > 2 ? 0.3 : 0.0;
  spec.seed = static_cast<uint64_t>(100 + seed);
  IncompleteDataset dataset = MakeRandomDataset(spec);
  int singles = 0;
  for (int i = 0; i < dataset.num_examples(); ++i) {
    if (dataset.num_candidates(i) == 1) ++singles;
  }
  ASSERT_GT(singles, 0) << "no single-candidate tuple to pin";
  const std::vector<double> t = MakeRandomTestPoint(spec.dim, spec.seed);
  NegativeEuclideanKernel kernel;

  // Tuples whose pinned runs stop before some of their candidates' entries
  // but not before others: the walk met the mass target between two of
  // the tuple's entries. A run's support holds tuple i iff it reached the
  // pinned candidate's entry.
  int split_tuples = 0;
  for (const double epsilon : {0.0, 1e-9, 1e-3, 0.1}) {
    FastQ2 sweep_engine(&dataset, k, epsilon);
    FastQ2 ref_engine(&dataset, k, epsilon);
    ref_engine.EnableSupportCapture(true);
    sweep_engine.SetTestPoint(t, kernel);
    ref_engine.SetTestPoint(t, kernel);
    for (int i = 0; i < dataset.num_examples(); ++i) {
      const int m = dataset.num_candidates(i);
      const std::vector<double> got = sweep_engine.EntropyPinnedSweep(i);
      ASSERT_EQ(static_cast<int>(got.size()), m);
      int reached = 0;
      for (int j = 0; j < m; ++j) {
        const double want = ref_engine.EntropyPinned(i, j);
        EXPECT_EQ(Bits(got[static_cast<size_t>(j)]), Bits(want))
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
        const std::vector<int>& support = ref_engine.last_support();
        if (std::binary_search(support.begin(), support.end(), i)) ++reached;
      }
      if (reached > 0 && reached < m) ++split_tuples;
    }
    // State restoration: after every sweep the engine answers unpinned,
    // pinned, and repeated sweep queries with a fresh engine's bits.
    EXPECT_EQ(Bits(sweep_engine.EntropyUnpinned()),
              Bits(ref_engine.EntropyUnpinned()))
        << "epsilon " << epsilon;
    for (const int i : {0, 17, 39}) {
      const std::vector<double> again = sweep_engine.EntropyPinnedSweep(i);
      for (int j = 0; j < dataset.num_candidates(i); ++j) {
        const uint64_t want = Bits(ref_engine.EntropyPinned(i, j));
        EXPECT_EQ(Bits(again[static_cast<size_t>(j)]), want)
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
        EXPECT_EQ(Bits(sweep_engine.EntropyPinned(i, j)), want)
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
      }
    }
  }
  EXPECT_GT(split_tuples, 0)
      << "no pinned tuple straddles the walk's mass cutoff";
}

INSTANTIATE_TEST_SUITE_P(SweepShapes, FastQ2SweepShapeTest,
                         ::testing::Combine(::testing::Range(1, 5),
                                            ::testing::Values(1, 3, 16)));

TEST(FastQ2PruningTest, TopKFloorSoundness) {
  // Tuples whose max similarity sits below the top-K floor cannot change
  // the distribution when pinned.
  RandomDatasetSpec spec;
  spec.num_examples = 20;
  spec.max_candidates = 3;
  spec.num_labels = 2;
  spec.seed = 99;
  IncompleteDataset dataset = MakeRandomDataset(spec);
  const std::vector<double> t = MakeRandomTestPoint(spec.dim, 99);
  NegativeEuclideanKernel kernel;
  FastQ2 fast(&dataset, /*k=*/3, 0.0);
  fast.SetTestPoint(t, kernel);
  const double floor = fast.TopKFloor();
  const std::vector<double> base = fast.Fractions();
  int pruned = 0;
  for (int i = 0; i < dataset.num_examples(); ++i) {
    if (fast.MaxSimilarity(i) >= floor) continue;
    ++pruned;
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      const std::vector<double> pinned = fast.FractionsPinned(i, j);
      for (size_t y = 0; y < base.size(); ++y) {
        EXPECT_NEAR(pinned[y], base[y], 1e-9)
            << "pruned tuple " << i << " candidate " << j;
      }
    }
  }
  EXPECT_GT(pruned, 0) << "test instance should have prunable tuples";
}

TEST(FastQ2PruningTest, MinMaxSimilarityReported) {
  IncompleteDataset dataset(2);
  ASSERT_TRUE(dataset.AddExample({{{0.0}, {3.0}}, 0}).ok());
  ASSERT_TRUE(dataset.AddExample({{{1.0}}, 1}).ok());
  NegativeEuclideanKernel kernel;
  FastQ2 fast(&dataset, 1, 0.0);
  fast.SetTestPoint({0.0}, kernel);
  EXPECT_DOUBLE_EQ(fast.MaxSimilarity(0), 0.0);   // candidate at distance 0
  EXPECT_DOUBLE_EQ(fast.MinSimilarity(0), -9.0);  // candidate at distance 3
  EXPECT_DOUBLE_EQ(fast.MaxSimilarity(1), -1.0);
}

}  // namespace
}  // namespace cpclean
