#include "incomplete/incomplete_dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace cpclean {
namespace {

IncompleteDataset MakeDataset() {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({1.0, 2.0}, 0).ok());
  CP_CHECK(dataset.AddExample({{{3.0, 4.0}, {5.0, 6.0}}, 1}).ok());
  CP_CHECK(dataset.AddExample({{{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}}, 0}).ok());
  return dataset;
}

TEST(IncompleteDatasetTest, BasicAccessors) {
  const IncompleteDataset dataset = MakeDataset();
  EXPECT_EQ(dataset.num_examples(), 3);
  EXPECT_EQ(dataset.num_labels(), 2);
  EXPECT_EQ(dataset.dim(), 2);
  EXPECT_EQ(dataset.num_candidates(0), 1);
  EXPECT_EQ(dataset.num_candidates(2), 3);
  EXPECT_EQ(dataset.max_candidates(), 3);
  EXPECT_EQ(dataset.label(1), 1);
  EXPECT_EQ(dataset.candidate(1, 1), (std::vector<double>{5.0, 6.0}));
}

TEST(IncompleteDatasetTest, ValidationRejectsBadExamples) {
  IncompleteDataset dataset(2);
  // Empty candidate set.
  EXPECT_FALSE(dataset.AddExample({{}, 0}).ok());
  // Label out of range.
  EXPECT_FALSE(dataset.AddExample({{{1.0}}, 2}).ok());
  EXPECT_FALSE(dataset.AddExample({{{1.0}}, -1}).ok());
  // Inconsistent dims within a candidate set.
  EXPECT_FALSE(dataset.AddExample({{{1.0}, {1.0, 2.0}}, 0}).ok());
  // Dim mismatch across examples.
  ASSERT_TRUE(dataset.AddCleanExample({1.0, 2.0}, 0).ok());
  EXPECT_FALSE(dataset.AddCleanExample({1.0}, 0).ok());
}

TEST(IncompleteDatasetTest, CompletenessAndDirtyList) {
  IncompleteDataset dataset = MakeDataset();
  EXPECT_FALSE(dataset.IsComplete());
  EXPECT_EQ(dataset.DirtyExamples(), (std::vector<int>{1, 2}));
  dataset.FixExample(1, 0);
  dataset.FixExample(2, 2);
  EXPECT_TRUE(dataset.IsComplete());
  EXPECT_TRUE(dataset.DirtyExamples().empty());
}

TEST(IncompleteDatasetTest, WorldCounting) {
  const IncompleteDataset dataset = MakeDataset();
  EXPECT_EQ(dataset.NumPossibleWorlds(), BigUint(6));  // 1 * 2 * 3
  EXPECT_NEAR(dataset.Log2NumPossibleWorlds(), std::log2(6.0), 1e-12);
}

TEST(IncompleteDatasetTest, FixExampleKeepsChosenValue) {
  IncompleteDataset dataset = MakeDataset();
  dataset.FixExample(2, 1);
  EXPECT_EQ(dataset.num_candidates(2), 1);
  EXPECT_EQ(dataset.candidate(2, 0), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(dataset.NumPossibleWorlds(), BigUint(2));
}

TEST(IncompleteDatasetTest, ReplaceCandidates) {
  IncompleteDataset dataset = MakeDataset();
  dataset.ReplaceCandidates(0, {{9.0, 9.0}, {8.0, 8.0}});
  EXPECT_EQ(dataset.num_candidates(0), 2);
  EXPECT_EQ(dataset.NumPossibleWorlds(), BigUint(12));
}

TEST(IncompleteDatasetTest, JournalRecordsMutationsSinceEnable) {
  IncompleteDataset dataset = MakeDataset();
  const uint64_t v0 = dataset.version();
  EXPECT_FALSE(dataset.journal_enabled());
  dataset.EnableJournal();
  EXPECT_TRUE(dataset.journal_enabled());
  EXPECT_TRUE(dataset.JournalCovers(v0));
  // Coverage starts at the version the journal was enabled at.
  EXPECT_FALSE(dataset.JournalCovers(v0 - 1));
  dataset.FixExample(1, 0);
  dataset.FixExample(2, 0);
  const std::vector<MutationRecord> all = dataset.JournalSince(v0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].seq, v0 + 1);
  EXPECT_EQ(all[0].example, 1);
  EXPECT_EQ(all[1].seq, v0 + 2);
  EXPECT_EQ(all[1].example, 2);
  EXPECT_EQ(dataset.JournalSince(v0 + 1).size(), 1u);
  EXPECT_EQ(dataset.JournalSince(v0 + 2).size(), 0u);
}

TEST(IncompleteDatasetTest, CopiesKeepVersionAndDropJournal) {
  IncompleteDataset dataset = MakeDataset();
  dataset.EnableJournal();
  dataset.FixExample(1, 0);
  const IncompleteDataset copy = dataset;
  EXPECT_FALSE(copy.journal_enabled());
  EXPECT_EQ(copy.version(), dataset.version());
  EXPECT_TRUE(BitIdentical(copy, dataset));
  // Assignment adopts the assigned dataset's version the same way.
  IncompleteDataset assigned(2);
  assigned = dataset;
  EXPECT_FALSE(assigned.journal_enabled());
  EXPECT_EQ(assigned.version(), dataset.version());
  EXPECT_TRUE(BitIdentical(assigned, dataset));
}

// --- Flat mirror ------------------------------------------------------------

// Every active candidate must be readable through the flat view, and its
// cached squared norm must match the vector view.
void ExpectFlatMirrorsVectors(const IncompleteDataset& dataset) {
  for (int i = 0; i < dataset.num_examples(); ++i) {
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      const std::vector<double>& want = dataset.candidate(i, j);
      const double* got = dataset.candidate_ptr(i, j);
      double sq = 0.0;
      for (int d = 0; d < dataset.dim(); ++d) {
        EXPECT_DOUBLE_EQ(got[d], want[static_cast<size_t>(d)])
            << "candidate (" << i << "," << j << ") dim " << d;
        sq += want[static_cast<size_t>(d)] * want[static_cast<size_t>(d)];
      }
      EXPECT_DOUBLE_EQ(dataset.candidate_sq_norm(i, j), sq);
      EXPECT_EQ(got, dataset.flat_data() +
                         static_cast<size_t>(dataset.flat_row(i, j)) *
                             static_cast<size_t>(dataset.dim()));
    }
  }
}

TEST(IncompleteDatasetFlatTest, FreshDatasetIsCompactAndMirrored) {
  const IncompleteDataset dataset = MakeDataset();
  EXPECT_EQ(dataset.total_candidates(), 6);
  EXPECT_TRUE(dataset.flat_is_compact());
  ExpectFlatMirrorsVectors(dataset);
  // Example rows are adjacent: example 1 starts right after example 0.
  EXPECT_EQ(dataset.flat_row(0, 0), 0);
  EXPECT_EQ(dataset.flat_row(1, 0), 1);
  EXPECT_EQ(dataset.flat_row(2, 0), 3);
}

TEST(IncompleteDatasetFlatTest, FixExampleCollapsesInPlace) {
  IncompleteDataset dataset = MakeDataset();
  dataset.FixExample(2, 1);
  EXPECT_EQ(dataset.total_candidates(), 4);
  // Retired rows stay in the slab (stable offsets), so it is not compact.
  EXPECT_FALSE(dataset.flat_is_compact());
  ExpectFlatMirrorsVectors(dataset);
  EXPECT_DOUBLE_EQ(dataset.candidate_ptr(2, 0)[0], 1.0);
  EXPECT_DOUBLE_EQ(dataset.candidate_sq_norm(2, 0), 2.0);
}

TEST(IncompleteDatasetFlatTest, ReplaceWithinCapacityKeepsOffsets) {
  IncompleteDataset dataset = MakeDataset();
  const double* slab_before = dataset.flat_data();
  const int start_before = dataset.flat_row(2, 0);
  dataset.ReplaceCandidates(2, {{7.0, 7.0}, {6.0, 5.0}});  // 3 -> 2 slots
  EXPECT_EQ(dataset.flat_row(2, 0), start_before);
  EXPECT_EQ(dataset.flat_data(), slab_before);
  ExpectFlatMirrorsVectors(dataset);
  // Shrink-then-restore (the slow selection path's save/restore pattern)
  // stays within the example's original capacity.
  dataset.ReplaceCandidates(2, {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(dataset.flat_row(2, 0), start_before);
  ExpectFlatMirrorsVectors(dataset);
}

TEST(IncompleteDatasetFlatTest, ReplaceBeyondCapacityRelaysTheSlab) {
  IncompleteDataset dataset = MakeDataset();
  dataset.ReplaceCandidates(0, {{9.0, 9.0}, {8.0, 8.0}});  // capacity 1 -> 2
  EXPECT_EQ(dataset.total_candidates(), 7);
  EXPECT_TRUE(dataset.flat_is_compact());  // rebuild re-compacts everything
  ExpectFlatMirrorsVectors(dataset);
  EXPECT_EQ(dataset.flat_row(1, 0), 2);  // offsets shifted by the growth
}

TEST(IncompleteDatasetFlatTest, MirrorSurvivesMixedMutation) {
  IncompleteDataset dataset = MakeDataset();
  dataset.FixExample(1, 1);
  dataset.ReplaceCandidates(2, {{4.0, 4.0}, {5.0, 5.0}, {6.0, 6.0},
                                {7.0, 7.0}});  // grows: rebuild
  ASSERT_TRUE(dataset.AddExample({{{1.5, 2.5}, {3.5, 4.5}}, 1}).ok());
  dataset.FixExample(3, 0);
  ExpectFlatMirrorsVectors(dataset);
  EXPECT_EQ(dataset.total_candidates(), 1 + 1 + 4 + 1);
}

// Every active row's features and cached norm, byte for byte.
void ExpectSameRowBytes(const IncompleteDataset& a, const IncompleteDataset& b) {
  ASSERT_EQ(a.num_examples(), b.num_examples());
  ASSERT_EQ(a.dim(), b.dim());
  const size_t row_bytes = static_cast<size_t>(a.dim()) * sizeof(double);
  for (int i = 0; i < a.num_examples(); ++i) {
    ASSERT_EQ(a.num_candidates(i), b.num_candidates(i));
    for (int j = 0; j < a.num_candidates(i); ++j) {
      EXPECT_EQ(std::memcmp(a.candidate_ptr(i, j), b.candidate_ptr(i, j),
                            row_bytes),
                0)
          << "candidate (" << i << "," << j << ")";
      const double na = a.candidate_sq_norm(i, j);
      const double nb = b.candidate_sq_norm(i, j);
      EXPECT_EQ(std::memcmp(&na, &nb, sizeof(double)), 0)
          << "norm (" << i << "," << j << ")";
    }
  }
}

// In-place collapses, same-size and growing replacements and appends leave
// the slab holding exactly what a dataset built fresh from the final
// examples holds.
TEST(IncompleteDatasetFlatTest, MutatedSlabMatchesFreshlyBuiltTwin) {
  IncompleteDataset dataset = MakeDataset();
  dataset.FixExample(2, 1);
  dataset.ReplaceCandidates(1, {{1.0 / 3.0, -0.0}, {1e300, 4.2}});
  ASSERT_TRUE(dataset.AddExample({{{1.5, 2.5}, {3.5, 4.5}}, 1}).ok());
  dataset.ReplaceCandidates(0, {{0.1, 0.2}, {-1.0, -2.0}, {9.0, 8.0}});
  dataset.FixExample(3, 0);
  IncompleteDataset fresh(dataset.num_labels());
  for (int i = 0; i < dataset.num_examples(); ++i) {
    ASSERT_TRUE(fresh.AddExample(dataset.example(i)).ok());
  }
  EXPECT_TRUE(BitIdentical(dataset, fresh));
  EXPECT_EQ(dataset.total_candidates(), fresh.total_candidates());
  ExpectSameRowBytes(dataset, fresh);
}

// A copy keeps the slab layout, retired rows included, and owns its
// storage: mutating the copy leaves the original untouched.
TEST(IncompleteDatasetFlatTest, CopyKeepsLayoutAndOwnsItsSlab) {
  IncompleteDataset dataset = MakeDataset();
  dataset.FixExample(2, 2);
  ASSERT_FALSE(dataset.flat_is_compact());
  IncompleteDataset copy = dataset;
  EXPECT_FALSE(copy.flat_is_compact());
  EXPECT_NE(copy.flat_data(), dataset.flat_data());
  for (int i = 0; i < dataset.num_examples(); ++i) {
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      EXPECT_EQ(copy.flat_row(i, j), dataset.flat_row(i, j));
    }
  }
  ExpectSameRowBytes(copy, dataset);
  copy.FixExample(1, 0);
  EXPECT_EQ(dataset.num_candidates(1), 2);
  EXPECT_DOUBLE_EQ(dataset.candidate_ptr(1, 1)[0], 5.0);
  ExpectFlatMirrorsVectors(dataset);
}

}  // namespace
}  // namespace cpclean
