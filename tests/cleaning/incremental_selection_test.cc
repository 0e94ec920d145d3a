// The greedy path keeps its selection rows across steps and recomputes only
// the validation points the last cleaned example could reach. These tests
// hold those cached scores to a from-scratch FastSelectionScores, bit for
// bit, at every step — across thread counts, a byte bound that caches only
// part of the rows, and every way the cache must be invalidated.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "cleaning/cp_clean.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "datasets/paper_datasets.h"
#include "eval/experiment.h"
#include "knn/kernel.h"

namespace cpclean {

// Reaches the scores the next greedy selection uses. Calling it runs that
// selection, so the StepGreedy right after finds the dataset unmoved and
// reuses every cached row.
class CleaningSessionTestPeer {
 public:
  static std::vector<double> GreedyScores(CleaningSession* session) {
    return session->SelectionScores(session->dirty_, /*use_cache=*/true);
  }
  static std::vector<int> Dirty(const CleaningSession& session) {
    return session.dirty_;
  }
  static size_t CachedRows(const CleaningSession& session) {
    return session.cache_.width == 0
               ? 0
               : session.cache_.rows.size() / session.cache_.width;
  }
};

namespace {

using Peer = CleaningSessionTestPeer;

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

PreparedExperiment Prepare(const PaperDatasetSpec& spec) {
  ExperimentConfig config;
  config.dataset = spec;
  config.k = 3;
  config.seed = 3;
  NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

CpCleanOptions Options(int num_threads) {
  CpCleanOptions options;
  options.k = 3;
  options.num_threads = num_threads;
  return options;
}

// Steps `session` until StepGreedy stops. Before every step the greedy
// path's scores must bit-match FastSelectionScores over the same dirty
// list. Returns the cleaned examples in order.
std::vector<int> StepCheckingScores(CleaningSession* session) {
  std::vector<int> cleaned;
  session->FracValCertain();  // the refresh StepGreedy runs first
  for (;;) {
    const std::vector<int> dirty = Peer::Dirty(*session);
    const std::vector<double> got = Peer::GreedyScores(session);
    const std::vector<double> want = session->FastSelectionScores(dirty);
    EXPECT_TRUE(SameBits(got, want))
        << "cached scores diverged before step " << cleaned.size() + 1;
    const int example = session->StepGreedy();
    if (example < 0) return cleaned;
    cleaned.push_back(example);
  }
}

std::vector<int> StepToEnd(CleaningSession* session) {
  std::vector<int> cleaned;
  for (int e = session->StepGreedy(); e >= 0; e = session->StepGreedy()) {
    cleaned.push_back(e);
  }
  return cleaned;
}

PaperDatasetSpec Supreme() {
  for (const PaperDatasetSpec& spec : PaperDatasetSuite(40, 10, 40)) {
    if (spec.name == "Supreme") return spec;
  }
  ADD_FAILURE() << "no Supreme analog";
  return PaperDatasetSpec{};
}

TEST(IncrementalSelectionTest, PaperSuiteScoresMatchFromScratchEveryStep) {
  NegativeEuclideanKernel kernel;
  for (const PaperDatasetSpec& spec : PaperDatasetSuite(40, 10, 40)) {
    const PreparedExperiment prepared = Prepare(spec);
    const size_t dirty = prepared.task.DirtyRows().size();
    // Room for about half the validation rows: the rest stream each step.
    const size_t partial =
        (prepared.task.val_x.size() / 2) * dirty * (sizeof(double) + 1);
    struct Config {
      int threads;
      size_t bound;
    };
    std::vector<int> want;  // the serial, fully cached trajectory
    for (const Config config :
         {Config{1, CpCleanOptions().max_contrib_bytes}, Config{4, partial}}) {
      SCOPED_TRACE(spec.name + " threads " + std::to_string(config.threads) +
                   " bound " + std::to_string(config.bound));
      CpCleanOptions options = Options(config.threads);
      options.max_contrib_bytes = config.bound;
      CleaningSession session(&prepared.task, &kernel, options);
      const std::vector<int> cleaned = StepCheckingScores(&session);
      if (config.threads == 1) {
        want = cleaned;
      } else {
        EXPECT_EQ(cleaned, want);
      }
      if (config.bound == partial && !want.empty()) {
        // The first selection caches some uncertain points and streams the
        // rest.
        CleaningSession probe(&prepared.task, &kernel, options);
        const size_t val = prepared.task.val_x.size();
        const size_t uncertain = val - static_cast<size_t>(std::lround(
                                           probe.FracValCertain() * val));
        ASSERT_GE(probe.StepGreedy(), 0);
        EXPECT_GT(Peer::CachedRows(probe), 0u);
        EXPECT_LT(Peer::CachedRows(probe), uncertain);
      }
    }
  }
}

TEST(IncrementalSelectionTest, RestoreMidRunMatchesUninterruptedSession) {
  const PreparedExperiment prepared = Prepare(Supreme());
  NegativeEuclideanKernel kernel;
  CleaningSession uninterrupted(&prepared.task, &kernel, Options(1));
  for (int s = 0; s < 4; ++s) ASSERT_GE(uninterrupted.StepGreedy(), 0);
  const CleaningSnapshot snapshot = uninterrupted.Snapshot();
  const std::vector<int> tail = StepToEnd(&uninterrupted);
  ASSERT_GT(tail.size(), 2u);

  // The restoring session has a cache of its own, stamped further along.
  CleaningSession restored(&prepared.task, &kernel, Options(4));
  for (int s = 0; s < 7; ++s) ASSERT_GE(restored.StepGreedy(), 0);
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_EQ(StepCheckingScores(&restored), tail);
}

TEST(IncrementalSelectionTest, RestoreOneStepPastTheStampInvalidates) {
  // Three greedy selections stamp the cache at two cleaned examples, and a
  // three-example snapshot then moves the dataset by exactly one version
  // past that stamp — onto a different cleaned set. Only Restore's reset
  // keeps those rows from being reused.
  const PreparedExperiment prepared = Prepare(Supreme());
  NegativeEuclideanKernel kernel;
  CpCleanOptions random_options = Options(1);
  random_options.max_cleaned = 3;
  CleaningSession random(&prepared.task, &kernel, random_options);
  Rng rng(7);
  ASSERT_EQ(random.RunRandomClean(&rng).examples_cleaned, 3);
  const CleaningSnapshot snapshot = random.Snapshot();

  CleaningSession fresh(&prepared.task, &kernel, Options(1));
  ASSERT_TRUE(fresh.Restore(snapshot).ok());
  const std::vector<int> want = StepToEnd(&fresh);

  CleaningSession session(&prepared.task, &kernel, Options(1));
  for (int s = 0; s < 3; ++s) ASSERT_GE(session.StepGreedy(), 0);
  ASSERT_TRUE(session.Restore(snapshot).ok());
  EXPECT_EQ(StepCheckingScores(&session), want);
}

TEST(IncrementalSelectionTest, RunCpCleanAfterStepsMatchesFreshRun) {
  const PreparedExperiment prepared = Prepare(Supreme());
  NegativeEuclideanKernel kernel;
  CleaningSession fresh(&prepared.task, &kernel, Options(1));
  const CleaningRunResult want = fresh.RunCpClean();
  for (const int steps : {1, 2, 5}) {
    CleaningSession session(&prepared.task, &kernel, Options(1));
    for (int s = 0; s < steps; ++s) ASSERT_GE(session.StepGreedy(), 0);
    const CleaningRunResult got = session.RunCpClean();
    ASSERT_EQ(got.steps.size(), want.steps.size()) << steps << " steps";
    for (size_t s = 0; s < want.steps.size(); ++s) {
      EXPECT_EQ(got.steps[s].cleaned_example, want.steps[s].cleaned_example);
      EXPECT_EQ(got.steps[s].frac_val_certain, want.steps[s].frac_val_certain);
      EXPECT_EQ(got.steps[s].test_accuracy, want.steps[s].test_accuracy);
    }
    // The run leaves the cache stamped; stepping on from it stays exact.
    EXPECT_EQ(StepCheckingScores(&session), std::vector<int>{});
  }
}

TEST(IncrementalSelectionTest, ReferenceSelectionAgreesOnSmallAnalog) {
  // The reference path runs SS-DC per candidate: keep the analog small.
  const PreparedExperiment prepared =
      Prepare(PaperDatasetSuite(20, 5, 20)[1]);
  NegativeEuclideanKernel kernel;
  CpCleanOptions fast = Options(1);
  fast.max_cleaned = 3;
  fast.track_test_accuracy = false;
  CpCleanOptions reference = fast;
  reference.use_fast_selection = false;
  CleaningSession fast_session(&prepared.task, &kernel, fast);
  CleaningSession reference_session(&prepared.task, &kernel, reference);
  const CleaningRunResult want = reference_session.RunCpClean();
  const CleaningRunResult got = fast_session.RunCpClean();
  ASSERT_EQ(got.steps.size(), want.steps.size());
  ASSERT_GT(got.steps.size(), 3u);
  for (size_t s = 0; s < want.steps.size(); ++s) {
    EXPECT_EQ(got.steps[s].cleaned_example, want.steps[s].cleaned_example)
        << "step " << s;
  }
}

TEST(IncrementalSelectionTest, EmptyValidationSetPathsAgree) {
  // With no validation points every score is 0 on both paths, so both
  // clean in ascending example order (ties break toward the smallest
  // index) instead of the reference path scoring NaN.
  PaperDatasetSpec spec = Supreme();
  spec.val_size = 0;
  const PreparedExperiment prepared = Prepare(spec);
  ASSERT_TRUE(prepared.task.val_x.empty());
  NegativeEuclideanKernel kernel;
  CpCleanOptions fast = Options(1);
  fast.stop_when_all_certain = false;
  fast.track_test_accuracy = false;
  CpCleanOptions reference = fast;
  reference.use_fast_selection = false;
  CleaningSession fast_session(&prepared.task, &kernel, fast);
  CleaningSession reference_session(&prepared.task, &kernel, reference);
  const std::vector<int> want = prepared.task.DirtyRows();
  ASSERT_GT(want.size(), 2u);
  EXPECT_EQ(StepToEnd(&reference_session), want);
  EXPECT_EQ(StepCheckingScores(&fast_session), want);
}

TEST(IncrementalSelectionTest, ReuseShowsInRegistryCounters) {
  MetricCounter& reused = MetricsRegistry::Get().GetCounter(
      "cleaning.selection_rows_reused_total");
  MetricCounter& computed = MetricsRegistry::Get().GetCounter(
      "cleaning.selection_rows_computed_total");
  const uint64_t reused_before = reused.Value();
  const uint64_t computed_before = computed.Value();

  const PreparedExperiment prepared = Prepare(Supreme());
  NegativeEuclideanKernel kernel;
  CleaningSession session(&prepared.task, &kernel, Options(1));
  ASSERT_GT(StepToEnd(&session).size(), 2u);
  EXPECT_GT(reused.Value(), reused_before);
  EXPECT_GT(computed.Value(), computed_before);

  const std::string text = MetricsPrometheusText();
  EXPECT_NE(text.find("cpclean_cleaning_selection_rows_reused_total"),
            std::string::npos);
  EXPECT_NE(text.find("cpclean_cleaning_selection_rows_computed_total"),
            std::string::npos);
}

}  // namespace
}  // namespace cpclean
