// Witness extraction (core/witness.h): the provenance contract behind the
// served `explain` op. For every query the witness set must be SOUND —
// restricting the dataset to the witnesses reproduces the full-dataset Q1
// answer bit for bit — and 1-MINIMAL — removing any single witness flips
// or un-certifies the answer (whenever more than k tuples remain, so the
// restricted KNN query stays well-posed). Both properties are checked
// against an oracle independent of the code under test: Q1 on a
// test-local copy of the restricted rows, by brute-force world
// enumeration when the copy has few enough worlds and by the Boolean
// SS-DC on the copy otherwise — never through MM's decide half or the
// index-list decisions explain itself runs. Binary cases run across seeds
// and missing rates; a three-label case covers the multi-label path.

#include "core/witness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/big_uint.h"
#include "core/brute_force.h"
#include "core/certain_predictor.h"
#include "core/ss_dc.h"
#include "eval/experiment.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

constexpr int kK = 3;

PreparedExperiment MakePrepared(uint64_t seed, double missing_rate) {
  ExperimentConfig config;
  config.dataset.name = "witness";
  config.dataset.synthetic.name = "witness";
  config.dataset.synthetic.num_rows = 36 + 10 + 6;
  config.dataset.synthetic.num_numeric = 4;
  config.dataset.synthetic.num_categorical = 0;
  config.dataset.synthetic.noise_sigma = 0.3;
  config.dataset.synthetic.seed = seed;
  config.dataset.missing_rate = missing_rate;
  config.dataset.val_size = 10;
  config.dataset.test_size = 6;
  config.k = kK;
  config.seed = seed;
  static NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

/// Copies with at most this many possible worlds are checked by world
/// enumeration; larger ones by the Boolean SS-DC.
constexpr uint64_t kMaxBruteForceWorlds = 1u << 16;

/// Oracle Q1 label (-1 when worlds disagree) of `dataset` restricted to
/// `rows`, evaluated on a test-local copy of those rows. Counts the
/// brute-force evaluations in `*brute_forced`.
int OracleLabel(const IncompleteDataset& dataset, const std::vector<int>& rows,
                const std::vector<double>& t, const SimilarityKernel& kernel,
                int k, int* brute_forced) {
  IncompleteDataset copy(dataset.num_labels());
  for (const int i : rows) {
    EXPECT_TRUE(copy.AddExample(dataset.example(i)).ok());
  }
  if (copy.NumPossibleWorlds() <= BigUint(kMaxBruteForceWorlds)) {
    ++*brute_forced;
    return BruteForceCheck(copy, t, kernel, k).CertainLabel();
  }
  return SsCheck(copy, t, kernel, k).CertainLabel();
}

/// All tuple ids except `removed`, preserving ascending order.
std::vector<int> Without(const std::vector<int>& tuples, int removed) {
  std::vector<int> out;
  out.reserve(tuples.size() - 1);
  for (const int id : tuples) {
    if (id != removed) out.push_back(id);
  }
  return out;
}

/// Checks one explained point against the oracle: the header restates the
/// full answer, the witnesses reproduce it (and WitnessReproduces agrees),
/// and, when the set is marked minimal and larger than k, removing any one
/// witness changes it. Returns the number of removals checked.
int CheckAgainstOracle(const IncompleteDataset& dataset,
                       const std::vector<double>& t,
                       const SimilarityKernel& kernel, int k,
                       int* brute_forced) {
  const auto explained = ExplainPrediction(dataset, t, kernel, k);
  EXPECT_TRUE(explained.ok()) << explained.status().message();
  if (!explained.ok()) return 0;
  const WitnessSet& witness = explained.value();

  // The witness header must restate the full answer exactly.
  const int full_label = CertainPredictor(&kernel, k).Check(dataset, t)
                             .CertainLabel();
  EXPECT_EQ(witness.certain, full_label >= 0);
  EXPECT_EQ(witness.label, full_label);

  // Soundness: the restriction to the witnesses reproduces the answer.
  EXPECT_EQ(OracleLabel(dataset, witness.tuples, t, kernel, k, brute_forced),
            witness.label);
  const auto reproduces = WitnessReproduces(dataset, witness.tuples, t, kernel,
                                            k, witness.certain, witness.label);
  EXPECT_TRUE(reproduces.ok() && reproduces.value());

  // 1-minimality is only testable while the restricted query stays
  // well-posed (>= k tuples after a removal); minimization never digs
  // below that floor either.
  if (!witness.minimal || static_cast<int>(witness.tuples.size()) <= k) {
    return 0;
  }
  int removals = 0;
  for (const int removed : witness.tuples) {
    EXPECT_NE(OracleLabel(dataset, Without(witness.tuples, removed), t, kernel,
                          k, brute_forced),
              witness.label)
        << "witness tuple " << removed << " is redundant";
    ++removals;
  }
  return removals;
}

TEST(WitnessTest, WitnessesReproduceTheFullAnswerAcrossSeeds) {
  NegativeEuclideanKernel kernel;
  int brute_forced = 0;
  for (const uint64_t seed : {11u, 23u, 47u}) {
    const PreparedExperiment prepared = MakePrepared(seed, 0.2);
    for (const std::vector<double>& t : prepared.task.val_x) {
      SCOPED_TRACE(seed);
      CheckAgainstOracle(prepared.task.incomplete, t, kernel, kK,
                         &brute_forced);
    }
  }
  EXPECT_GT(brute_forced, 0);
}

TEST(WitnessTest, MinimalWitnessesCannotLoseAnyTuple) {
  NegativeEuclideanKernel kernel;
  int exercised = 0;
  int brute_forced = 0;
  for (const uint64_t seed : {11u, 23u, 47u}) {
    const PreparedExperiment prepared = MakePrepared(seed, 0.25);
    for (const std::vector<double>& t : prepared.task.val_x) {
      SCOPED_TRACE(seed);
      exercised += CheckAgainstOracle(prepared.task.incomplete, t, kernel, kK,
                                      &brute_forced);
    }
  }
  // The property must actually have been exercised, not skipped away.
  EXPECT_GT(exercised, 0);
  EXPECT_GT(brute_forced, 0);
}

TEST(WitnessTest, ThreeLabelWitnessesAreSoundAndMinimal) {
  // |Y| = 3 routes every decision through the Boolean SS-DC over one
  // sorted scan instead of MM.
  NegativeEuclideanKernel kernel;
  int exercised = 0;
  int brute_forced = 0;
  int certain = 0;
  for (const uint64_t seed : {3u, 5u, 8u, 13u}) {
    testing_util::RandomDatasetSpec spec;
    spec.num_examples = 30;
    spec.max_candidates = 3;
    spec.num_labels = 3;
    spec.dim = 3;
    spec.seed = seed;
    spec.tie_prob = seed % 2 == 0 ? 0.3 : 0.0;
    const IncompleteDataset dataset = testing_util::MakeRandomDataset(spec);
    for (uint64_t p = 0; p < 8; ++p) {
      SCOPED_TRACE(seed * 100 + p);
      const std::vector<double> t =
          testing_util::MakeRandomTestPoint(spec.dim, seed * 100 + p);
      exercised += CheckAgainstOracle(dataset, t, kernel, kK, &brute_forced);
      if (CertainPredictor(&kernel, kK).Check(dataset, t).CertainLabel() >= 0) {
        ++certain;
      }
    }
  }
  EXPECT_GT(exercised, 0);
  EXPECT_GT(brute_forced, 0);
  EXPECT_GT(certain, 0);
}

TEST(WitnessTest, DeterministicAndWellFormed) {
  NegativeEuclideanKernel kernel;
  const PreparedExperiment prepared = MakePrepared(31, 0.2);
  const IncompleteDataset& dataset = prepared.task.incomplete;
  for (const std::vector<double>& t : prepared.task.val_x) {
    const auto first = ExplainPrediction(dataset, t, kernel, kK);
    const auto second = ExplainPrediction(dataset, t, kernel, kK);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value().tuples, second.value().tuples);
    EXPECT_EQ(first.value().support, second.value().support);
    EXPECT_EQ(first.value().label, second.value().label);
    EXPECT_EQ(first.value().minimal, second.value().minimal);

    // Witnesses and support are ascending, duplicate-free, in range.
    for (const std::vector<int>* ids :
         {&first.value().tuples, &first.value().support}) {
      EXPECT_TRUE(std::is_sorted(ids->begin(), ids->end()));
      EXPECT_EQ(std::adjacent_find(ids->begin(), ids->end()), ids->end());
      for (const int id : *ids) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, dataset.num_examples());
      }
    }
    EXPECT_GE(static_cast<int>(first.value().tuples.size()), kK);
  }
}

TEST(WitnessTest, RejectsIllPosedQueries) {
  NegativeEuclideanKernel kernel;
  const PreparedExperiment prepared = MakePrepared(31, 0.2);
  const IncompleteDataset& dataset = prepared.task.incomplete;
  const std::vector<double>& t = prepared.task.val_x[0];
  // k below 1 and k beyond the dataset are structured errors.
  EXPECT_FALSE(ExplainPrediction(dataset, t, kernel, 0).ok());
  EXPECT_FALSE(
      ExplainPrediction(dataset, t, kernel, dataset.num_examples() + 1).ok());
  // A subset smaller than k cannot host a KNN query.
  EXPECT_FALSE(CheckOnSubset(dataset, {0, 1}, t, kernel, kK).ok());
  // Out-of-range tuple ids are refused, not crashed on.
  EXPECT_FALSE(
      CheckOnSubset(dataset, {0, 1, dataset.num_examples()}, t, kernel, kK)
          .ok());
  // So are lists out of ascending order, k above the engine cap, and
  // points of the wrong dimension.
  EXPECT_FALSE(CheckOnSubset(dataset, {2, 1, 0}, t, kernel, kK).ok());
  std::vector<int> all(static_cast<size_t>(dataset.num_examples()));
  for (int i = 0; i < dataset.num_examples(); ++i) all[static_cast<size_t>(i)] = i;
  EXPECT_FALSE(CheckOnSubset(dataset, all, t, kernel, 17).ok());
  EXPECT_FALSE(ExplainPrediction(dataset, {1.0}, kernel, kK).ok());
  EXPECT_FALSE(CheckOnSubset(dataset, all, {1.0}, kernel, kK).ok());
}

}  // namespace
}  // namespace cpclean
