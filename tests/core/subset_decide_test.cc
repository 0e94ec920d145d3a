// Differential test for Q1 decided on index lists (core/witness.h
// CheckOnSubset): MM's decide half for binary datasets and the index-list
// Boolean SS-DC for three labels, both read from one scoring of the whole
// dataset. Each answer is compared with brute-force world enumeration on a
// test-local copy of the listed rows, on tiny random instances with
// duplicated points (so similarity ties between tuples are common), all
// four kernels, and k in {1, 3, 5}.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/brute_force.h"
#include "core/witness.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

/// n tuples of up to 3 candidates in 2 dimensions. Coordinates are often
/// grid points, and candidates often copy an earlier tuple's candidate, so
/// many similarities tie exactly across tuples.
IncompleteDataset MakeTinyDataset(Rng* rng, int n, int num_labels) {
  IncompleteDataset dataset(num_labels);
  std::vector<std::vector<double>> seen;
  for (int i = 0; i < n; ++i) {
    IncompleteExample ex;
    ex.label = i < num_labels ? i : rng->NextInt(0, num_labels - 1);
    const int m = rng->NextInt(1, 3);
    for (int j = 0; j < m; ++j) {
      std::vector<double> x(2);
      if (!seen.empty() && rng->NextBernoulli(0.3)) {
        x = seen[static_cast<size_t>(
            rng->NextInt(0, static_cast<int>(seen.size()) - 1))];
      } else {
        for (double& v : x) {
          v = rng->NextBernoulli(0.5) ? static_cast<double>(rng->NextInt(-1, 1))
                                      : rng->NextDouble(-2.0, 2.0);
        }
      }
      seen.push_back(x);
      ex.candidates.push_back(std::move(x));
    }
    EXPECT_TRUE(dataset.AddExample(std::move(ex)).ok());
  }
  return dataset;
}

/// A random ascending subset of [0, n) with at least k members.
std::vector<int> RandomSubset(Rng* rng, int n, int k) {
  while (true) {
    std::vector<int> rows;
    for (int i = 0; i < n; ++i) {
      if (rng->NextBernoulli(0.6)) rows.push_back(i);
    }
    if (static_cast<int>(rows.size()) >= k) return rows;
  }
}

IncompleteDataset CopyRows(const IncompleteDataset& dataset,
                           const std::vector<int>& rows) {
  IncompleteDataset copy(dataset.num_labels());
  for (const int i : rows) {
    EXPECT_TRUE(copy.AddExample(dataset.example(i)).ok());
  }
  return copy;
}

TEST(SubsetDecideTest, IndexListDecisionsMatchBruteForceOnCopies) {
  std::vector<std::unique_ptr<SimilarityKernel>> kernels;
  kernels.push_back(std::make_unique<NegativeEuclideanKernel>());
  kernels.push_back(std::make_unique<RbfKernel>(0.7));
  kernels.push_back(std::make_unique<LinearKernel>());
  kernels.push_back(std::make_unique<CosineKernel>());

  int compared = 0;
  int certain = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    for (const int num_labels : {2, 3}) {
      const int n = rng.NextInt(3, 8);
      const IncompleteDataset dataset = MakeTinyDataset(&rng, n, num_labels);
      std::vector<double> t(2);
      for (double& v : t) v = rng.NextDouble(-2.0, 2.0);
      for (const auto& kernel : kernels) {
        for (const int k : {1, 3, 5}) {
          if (k > n) continue;
          for (int trial = 0; trial < 3; ++trial) {
            const std::vector<int> rows = RandomSubset(&rng, n, k);
            const auto decided = CheckOnSubset(dataset, rows, t, *kernel, k);
            ASSERT_TRUE(decided.ok()) << decided.status().message();
            const CheckResult oracle =
                BruteForceCheck(CopyRows(dataset, rows), t, *kernel, k);
            EXPECT_EQ(decided.value().certain, oracle.certain)
                << "seed " << seed << ", " << num_labels << " labels, "
                << kernel->name() << ", k " << k << ", " << rows.size()
                << " of " << n << " rows";
            ++compared;
            if (oracle.CertainLabel() >= 0) ++certain;
          }
        }
      }
    }
  }
  // Both answers must have been exercised: certain and uncertain subsets.
  EXPECT_GT(certain, compared / 10);
  EXPECT_LT(certain, compared - compared / 10);
}

TEST(SubsetDecideTest, TiesBetweenTuplesBreakByTupleId) {
  // Three copies of one point: every world ties all three similarities,
  // and the shared order ranks the higher tuple id as more similar, so the
  // top-1 is the highest listed id and its label is certain.
  IncompleteDataset dataset(2);
  ASSERT_TRUE(dataset.AddCleanExample({1.0, 0.0}, 1).ok());
  ASSERT_TRUE(dataset.AddCleanExample({1.0, 0.0}, 0).ok());
  ASSERT_TRUE(dataset.AddCleanExample({1.0, 0.0}, 1).ok());
  NegativeEuclideanKernel kernel;
  const std::vector<double> t = {0.0, 0.0};
  for (const auto& [rows, label] :
       std::vector<std::pair<std::vector<int>, int>>{
           {{0, 1, 2}, 1}, {{0, 1}, 0}, {{0, 2}, 1}}) {
    EXPECT_EQ(CheckOnSubset(dataset, rows, t, kernel, 1).value().CertainLabel(),
              label);
    EXPECT_EQ(BruteForceCheck(CopyRows(dataset, rows), t, kernel, 1)
                  .CertainLabel(),
              label);
  }
  // Lists out of ascending order, or with a repeated id, are refused.
  EXPECT_FALSE(CheckOnSubset(dataset, {2, 1}, t, kernel, 1).ok());
  EXPECT_FALSE(CheckOnSubset(dataset, {1, 1}, t, kernel, 1).ok());
}

}  // namespace
}  // namespace cpclean
