// CleaningSession::Snapshot / Restore: replaying a snapshot's cleaning
// order against a fresh session on the same task must reproduce the
// interrupted session bit for bit — the working dataset, the certainty
// state, and (the hard part) the exact example sequence future greedy
// steps clean. This is the cleaning-layer half of the serving layer's
// save → evict → rehydrate contract.

#include "cleaning/cp_clean.h"

#include <gtest/gtest.h>

#include <vector>

#include "eval/experiment.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

PreparedExperiment MakePrepared(double missing_rate = 0.25,
                                uint64_t seed = 77) {
  ExperimentConfig config;
  config.dataset.name = "snapshot";
  config.dataset.synthetic.name = "snapshot";
  config.dataset.synthetic.num_rows = 40 + 12 + 8;
  config.dataset.synthetic.num_numeric = 4;
  config.dataset.synthetic.num_categorical = 0;
  config.dataset.synthetic.noise_sigma = 0.3;
  config.dataset.synthetic.seed = seed;
  config.dataset.missing_rate = missing_rate;
  config.dataset.val_size = 12;
  config.dataset.test_size = 8;
  config.k = 3;
  config.seed = seed;
  static NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

CpCleanOptions Options() {
  CpCleanOptions options;
  options.k = 3;
  options.track_test_accuracy = false;
  // Drain the full dirty list so the snapshot points cover a whole run
  // deterministically, not just the all-certain prefix.
  options.stop_when_all_certain = false;
  return options;
}

/// Steps `session` to exhaustion, returning the cleaning order.
std::vector<int> DrainGreedy(CleaningSession* session) {
  std::vector<int> order;
  while (true) {
    const int cleaned = session->StepGreedy();
    if (cleaned < 0) break;
    order.push_back(cleaned);
  }
  return order;
}

TEST(SnapshotTest, MidCleaningRestoreContinuesBitIdentically) {
  const PreparedExperiment prepared = MakePrepared();
  NegativeEuclideanKernel kernel;
  CleaningSession original(&prepared.task, &kernel, Options());

  // Clean three steps, snapshot, then let the original run to the end.
  for (int s = 0; s < 3; ++s) ASSERT_GE(original.StepGreedy(), 0);
  const CleaningSnapshot snapshot = original.Snapshot();
  ASSERT_EQ(snapshot.cleaned_order.size(), 3u);

  CleaningSession restored(&prepared.task, &kernel, Options());
  ASSERT_TRUE(restored.Restore(snapshot).ok());

  EXPECT_TRUE(BitIdentical(restored.working(), original.working()));
  EXPECT_EQ(restored.working().version(), original.working().version());
  EXPECT_EQ(restored.NumCleaned(), original.NumCleaned());
  EXPECT_EQ(restored.NumDirtyRemaining(), original.NumDirtyRemaining());
  EXPECT_EQ(restored.FracValCertain(), original.FracValCertain());

  // The remaining greedy trajectory must be the *same examples in the
  // same order* as the uninterrupted session's.
  const std::vector<int> original_rest = DrainGreedy(&original);
  const std::vector<int> restored_rest = DrainGreedy(&restored);
  EXPECT_EQ(original_rest, restored_rest);
  EXPECT_TRUE(BitIdentical(restored.working(), original.working()));
  EXPECT_EQ(restored.FracValCertain(), original.FracValCertain());
}

TEST(SnapshotTest, EmptySnapshotRestoresInitialState) {
  const PreparedExperiment prepared = MakePrepared();
  NegativeEuclideanKernel kernel;
  CleaningSession fresh(&prepared.task, &kernel, Options());
  CleaningSession restored(&prepared.task, &kernel, Options());
  ASSERT_TRUE(restored.Restore(CleaningSnapshot{}).ok());
  EXPECT_TRUE(BitIdentical(restored.working(), fresh.working()));
  EXPECT_EQ(restored.NumCleaned(), 0);
  EXPECT_EQ(DrainGreedy(&restored), DrainGreedy(&fresh));
}

TEST(SnapshotTest, FullyCleanedSnapshotHasEmptyDirtyList) {
  const PreparedExperiment prepared = MakePrepared();
  NegativeEuclideanKernel kernel;
  CleaningSession full(&prepared.task, &kernel, Options());
  const std::vector<int> order = DrainGreedy(&full);
  EXPECT_EQ(full.NumDirtyRemaining(), 0);

  CleaningSession restored(&prepared.task, &kernel, Options());
  ASSERT_TRUE(restored.Restore(full.Snapshot()).ok());
  EXPECT_EQ(restored.NumDirtyRemaining(), 0);
  EXPECT_EQ(restored.NumCleaned(), static_cast<int>(order.size()));
  EXPECT_TRUE(BitIdentical(restored.working(), full.working()));
  EXPECT_EQ(restored.StepGreedy(), -1);  // nothing left
}

TEST(SnapshotTest, CleanTaskSnapshotRoundTripsWithNothingToClean) {
  // missing_rate 0: every candidate set is a singleton, the dirty list is
  // empty from the start, and the snapshot carries a zero-length order.
  const PreparedExperiment prepared = MakePrepared(/*missing_rate=*/0.0);
  NegativeEuclideanKernel kernel;
  CleaningSession original(&prepared.task, &kernel, Options());
  EXPECT_EQ(original.NumDirtyRemaining(), 0);
  EXPECT_EQ(original.StepGreedy(), -1);
  const CleaningSnapshot snapshot = original.Snapshot();
  EXPECT_TRUE(snapshot.cleaned_order.empty());

  CleaningSession restored(&prepared.task, &kernel, Options());
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_TRUE(BitIdentical(restored.working(), original.working()));
  EXPECT_EQ(restored.StepGreedy(), -1);
}

TEST(SnapshotTest, RestoreRejectsInvalidOrders) {
  const PreparedExperiment prepared = MakePrepared();
  NegativeEuclideanKernel kernel;
  CleaningSession session(&prepared.task, &kernel, Options());

  EXPECT_FALSE(session.Restore(CleaningSnapshot{{-1}, {}}).ok());
  EXPECT_FALSE(session
                   .Restore(CleaningSnapshot{
                       {prepared.task.incomplete.num_examples()}, {}})
                   .ok());
  const std::vector<int> dirty = prepared.task.DirtyRows();
  ASSERT_FALSE(dirty.empty());
  // Same example twice.
  EXPECT_FALSE(
      session.Restore(CleaningSnapshot{{dirty[0], dirty[0]}, {}}).ok());
  // A failed restore still leaves a consistent (reset or replayed) state:
  // a valid restore afterwards succeeds.
  EXPECT_TRUE(session.Restore(CleaningSnapshot{{dirty[0]}, {}}).ok());
  EXPECT_EQ(session.NumCleaned(), 1);
}

}  // namespace
}  // namespace cpclean
