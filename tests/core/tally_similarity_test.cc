#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "core/similarity.h"
#include "core/tally_enum.h"
#include "knn/kernel.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

TEST(TallyEnumTest, EnumeratesAllCompositions) {
  std::vector<std::vector<int>> tallies;
  EnumerateTallies(3, 2, [&](const std::vector<int>& g) { tallies.push_back(g); });
  // C(2+2, 2) = 6 compositions of 2 into 3 parts.
  EXPECT_EQ(tallies.size(), 6u);
  EXPECT_EQ(CountTallies(3, 2), 6);
  std::set<std::vector<int>> unique(tallies.begin(), tallies.end());
  EXPECT_EQ(unique.size(), 6u);
  for (const auto& g : tallies) {
    EXPECT_EQ(g.size(), 3u);
    EXPECT_EQ(g[0] + g[1] + g[2], 2);
  }
}

TEST(TallyEnumTest, BinaryTallies) {
  std::vector<std::vector<int>> tallies;
  EnumerateTallies(2, 3, [&](const std::vector<int>& g) { tallies.push_back(g); });
  EXPECT_EQ(tallies.size(), 4u);  // (0,3) (1,2) (2,1) (3,0)
  EXPECT_EQ(CountTallies(2, 3), 4);
}

TEST(TallyEnumTest, SingleLabelDegenerate) {
  std::vector<std::vector<int>> tallies;
  EnumerateTallies(1, 5, [&](const std::vector<int>& g) { tallies.push_back(g); });
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0][0], 5);
}

TEST(SimilarityMatrixTest, ShapesFollowCandidates) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddExample({{{0.0}, {1.0}}, 0}).ok());
  CP_CHECK(dataset.AddCleanExample({2.0}, 1).ok());
  NegativeEuclideanKernel kernel;
  const auto sims = SimilarityMatrix(dataset, {0.0}, kernel);
  ASSERT_EQ(sims.size(), 2u);
  ASSERT_EQ(sims[0].size(), 2u);
  ASSERT_EQ(sims[1].size(), 1u);
  EXPECT_DOUBLE_EQ(sims[0][0], 0.0);
  EXPECT_DOUBLE_EQ(sims[0][1], -1.0);
  EXPECT_DOUBLE_EQ(sims[1][0], -4.0);
}

TEST(SortedScanTest, AscendingUnderTotalOrder) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddExample({{{0.0}, {1.0}}, 0}).ok());
  CP_CHECK(dataset.AddExample({{{1.0}, {3.0}}, 1}).ok());  // tie at 1.0
  NegativeEuclideanKernel kernel;
  const auto scan = SortedCandidateScan(dataset, {0.0}, kernel);
  ASSERT_EQ(scan.size(), 4u);
  // Ascending similarity: -9 (tuple1 cand1), -1 (tuple0 cand1),
  // -1 (tuple1 cand0) [tie broken by tuple index], 0 (tuple0 cand0).
  EXPECT_EQ(scan[0].tuple, 1);
  EXPECT_EQ(scan[0].candidate, 1);
  EXPECT_EQ(scan[1].tuple, 0);
  EXPECT_EQ(scan[1].candidate, 1);
  EXPECT_EQ(scan[2].tuple, 1);
  EXPECT_EQ(scan[2].candidate, 0);
  EXPECT_EQ(scan[3].tuple, 0);
  EXPECT_EQ(scan[3].candidate, 0);
  for (size_t i = 1; i < scan.size(); ++i) {
    EXPECT_TRUE(LessSimilar(scan[i - 1], scan[i]));
  }
}

// SimilarityScores sweeps a compact slab in one batch and a slab with
// retired rows example by example. Each row is scored independently, so
// the two layouts of the same candidate space give the same bits.
TEST(SimilarityScoresTest, RetiredRowsDoNotChangeAnyBit) {
  testing_util::RandomDatasetSpec spec;
  spec.num_examples = 30;
  spec.max_candidates = 4;
  spec.dim = 5;
  spec.seed = 12;
  IncompleteDataset retired = testing_util::MakeRandomDataset(spec);
  for (int i = 0; i < retired.num_examples(); i += 3) {
    retired.FixExample(i, retired.num_candidates(i) - 1);
  }
  IncompleteDataset compact(retired.num_labels());
  for (int i = 0; i < retired.num_examples(); ++i) {
    ASSERT_TRUE(compact.AddExample(retired.example(i)).ok());
  }
  ASSERT_FALSE(retired.flat_is_compact());
  ASSERT_TRUE(compact.flat_is_compact());
  ASSERT_EQ(retired.total_candidates(), compact.total_candidates());

  const std::vector<double> t = testing_util::MakeRandomTestPoint(spec.dim, 7);
  const size_t n = static_cast<size_t>(compact.total_candidates());
  for (const KernelKind kind :
       {KernelKind::kNegativeEuclidean, KernelKind::kRbf, KernelKind::kLinear,
        KernelKind::kCosine}) {
    const std::unique_ptr<SimilarityKernel> kernel = MakeKernel(kind, 0.7);
    std::vector<double> want(n);
    std::vector<double> got(n);
    EXPECT_EQ(SimilarityScores(compact, t, *kernel, want.data()),
              static_cast<int>(n));
    EXPECT_EQ(SimilarityScores(retired, t, *kernel, got.data()),
              static_cast<int>(n));
    EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(double)), 0)
        << kernel->name();
  }
}

}  // namespace
}  // namespace cpclean
