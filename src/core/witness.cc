#include "core/witness.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/string_util.h"
#include "core/fast_q2.h"
#include "core/mm.h"
#include "core/similarity.h"
#include "core/ss_dc.h"
#include "knn/ordering.h"

namespace cpclean {

namespace {

/// Q1 on index lists of one test point, decided from the one FastQ2 sweep
/// that scored it: MM's decide half on the per-tuple extremes when |Y| = 2,
/// the Boolean SS-DC over the ascending candidate scan otherwise. Nothing
/// is copied or scored again, so a binary decision on |W| tuples costs
/// O(|W| log k). Index lists are ascending tuple ids.
class SubsetDecider {
 public:
  SubsetDecider(const IncompleteDataset& dataset, const FastQ2& engine,
                int k)
      : dataset_(dataset), k_(k) {
    const int n = dataset.num_examples();
    if (dataset.num_labels() == 2) {
      min_sim_.resize(static_cast<size_t>(n));
      max_sim_.resize(static_cast<size_t>(n));
      labels_.resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        min_sim_[static_cast<size_t>(i)] = engine.MinSimilarity(i);
        max_sim_[static_cast<size_t>(i)] = engine.MaxSimilarity(i);
        labels_[static_cast<size_t>(i)] = dataset.label(i);
      }
      return;
    }
    scan_ = SortScan(dataset, engine.scores());
  }

  /// Drops the scan entries of tuples outside `tuples`, so later decisions
  /// (which must be on subsets of `tuples`) skip nothing.
  void Restrict(const std::vector<int>& tuples) {
    if (scan_.empty()) return;
    std::vector<uint8_t> kept(static_cast<size_t>(dataset_.num_examples()),
                              0);
    for (const int i : tuples) kept[static_cast<size_t>(i)] = 1;
    scan_.erase(std::remove_if(scan_.begin(), scan_.end(),
                               [&kept](const ScoredCandidate& entry) {
                                 return kept[static_cast<size_t>(
                                            entry.tuple)] == 0;
                               }),
                scan_.end());
  }

  CheckResult Check(const std::vector<int>& tuples) const {
    if (dataset_.num_labels() == 2) {
      return CheckFromPossible(
          MmPossibleLabels(min_sim_, max_sim_, labels_, tuples, k_));
    }
    return SsCheck(dataset_, tuples, scan_, k_);
  }

 private:
  const IncompleteDataset& dataset_;
  int k_;
  std::vector<double> min_sim_, max_sim_;  // |Y| = 2
  std::vector<int> labels_;                // |Y| = 2
  std::vector<ScoredCandidate> scan_;      // |Y| >= 3, ascending
};

Status CheckQuery(const IncompleteDataset& dataset,
                  const std::vector<double>& t, int k) {
  if (k < 1 || k > FastQ2::kMaxK) {
    return Status::InvalidArgument(
        StrFormat("k = %d outside [1, %d]", k, FastQ2::kMaxK));
  }
  if (static_cast<int>(t.size()) != dataset.dim()) {
    return Status::InvalidArgument(
        StrFormat("test point has %d features, dataset has %d",
                  static_cast<int>(t.size()), dataset.dim()));
  }
  return Status::OK();
}

}  // namespace

Result<CheckResult> CheckOnSubset(const IncompleteDataset& dataset,
                                  const std::vector<int>& tuples,
                                  const std::vector<double>& t,
                                  const SimilarityKernel& kernel, int k) {
  CP_RETURN_NOT_OK(CheckQuery(dataset, t, k));
  if (static_cast<int>(tuples.size()) < k) {
    return Status::InvalidArgument(StrFormat(
        "subset of %d tuples cannot answer a %d-NN query",
        static_cast<int>(tuples.size()), k));
  }
  for (size_t w = 0; w < tuples.size(); ++w) {
    const int i = tuples[w];
    if (i < 0 || i >= dataset.num_examples()) {
      return Status::OutOfRange(StrFormat(
          "witness tuple %d outside [0, %d)", i, dataset.num_examples()));
    }
    if (w > 0 && i <= tuples[w - 1]) {
      return Status::InvalidArgument(StrFormat(
          "witness tuples must be strictly ascending (%d after %d)", i,
          tuples[w - 1]));
    }
  }
  FastQ2 engine(&dataset, k);
  engine.SetTestPoint(t, kernel);
  return SubsetDecider(dataset, engine, k).Check(tuples);
}

Result<WitnessSet> ExplainPrediction(const IncompleteDataset& dataset,
                                     const std::vector<double>& t,
                                     const SimilarityKernel& kernel, int k,
                                     const WitnessOptions& options) {
  const int n = dataset.num_examples();
  CP_RETURN_NOT_OK(CheckQuery(dataset, t, k));
  if (n < k) {
    return Status::InvalidArgument(
        StrFormat("dataset has %d examples, need at least k = %d", n, k));
  }

  // Score once: the sweep yields the Q2 boundary support (capture flag),
  // the floor that prunes to the sound candidate superset, and the scores
  // every Q1 decision below reads.
  WitnessSet out;
  FastQ2 engine(&dataset, k);
  engine.EnableSupportCapture(true);
  engine.SetTestPoint(t, kernel);
  (void)engine.Fractions();
  out.support = engine.last_support();
  const double floor = engine.TopKFloor();

  SubsetDecider decider(dataset, engine, k);
  std::vector<int> witness(static_cast<size_t>(n));
  std::iota(witness.begin(), witness.end(), 0);
  out.label = decider.Check(witness).CertainLabel();
  out.certain = out.label >= 0;

  witness.clear();
  for (int i = 0; i < n; ++i) {
    if (engine.MaxSimilarity(i) >= floor) witness.push_back(i);
  }
  decider.Restrict(witness);

  // The pruning is provably sound; check anyway so a violated invariant
  // surfaces as an error instead of a wrong explanation.
  const int pruned = decider.Check(witness).CertainLabel();
  if (pruned != out.label) {
    return Status::Internal(StrFormat(
        "top-K floor pruning changed the answer (%d -> %d)", out.label,
        pruned));
  }

  if (static_cast<int>(witness.size()) > options.max_minimize_tuples) {
    out.minimal = false;
    out.tuples = std::move(witness);
    return out;
  }

  // Greedy deletion to a 1-minimal set. Attempt order: least relevant
  // first (ascending max similarity, ties by id) so the keepers are the
  // most similar tuples. Passes repeat until a full pass removes nothing —
  // then every survivor was re-tried against the final set and failed,
  // which is exactly the 1-minimality contract.
  bool changed = true;
  int pass = 0;
  while (changed && pass < options.max_passes) {
    changed = false;
    ++pass;
    std::vector<int> order = witness;
    std::stable_sort(order.begin(), order.end(), [&engine](int a, int b) {
      return engine.MaxSimilarity(a) < engine.MaxSimilarity(b);
    });
    for (const int id : order) {
      if (static_cast<int>(witness.size()) <= k) break;
      std::vector<int> trial;
      trial.reserve(witness.size() - 1);
      for (const int w : witness) {
        if (w != id) trial.push_back(w);
      }
      if (decider.Check(trial).CertainLabel() == out.label) {
        witness = std::move(trial);
        changed = true;
      }
    }
  }
  out.minimal = !changed;  // false only when the pass cap cut us off
  out.tuples = std::move(witness);
  return out;
}

Result<bool> WitnessReproduces(const IncompleteDataset& dataset,
                               const std::vector<int>& tuples,
                               const std::vector<double>& t,
                               const SimilarityKernel& kernel, int k,
                               bool want_certain, int want_label) {
  CP_ASSIGN_OR_RETURN(const CheckResult check,
                      CheckOnSubset(dataset, tuples, t, kernel, k));
  const int label = check.CertainLabel();
  return (label >= 0) == want_certain && label == want_label;
}

}  // namespace cpclean
