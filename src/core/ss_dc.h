#ifndef CPCLEAN_CORE_SS_DC_H_
#define CPCLEAN_CORE_SS_DC_H_

#include <numeric>
#include <vector>

#include "common/logging.h"
#include "core/cp_queries.h"
#include "core/similarity.h"
#include "core/support_tree.h"
#include "core/tally_enum.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"
#include "knn/ordering.h"
#include "knn/vote.h"

namespace cpclean {

/// SS-DC, paper Algorithm A.1: SortScan with the divide-and-conquer
/// support trees of Appendix A.2. One per-label segment tree maintains the
/// truncated product of `below + above*z` leaf polynomials; each scan step
/// updates a single leaf in O(K^2 log N) and reads
///   - the root polynomial for every other label, and
///   - the "product except the boundary tuple" for the boundary's label,
/// then enumerates the valid label tallies.
///
/// Overall O(N·M·(log(N·M) + K^2 log N + |Γ|·|Y|)) — the production engine
/// behind CPClean.
///
/// This form counts over the restriction of `dataset` to `tuples` (ascending
/// ids) and reads the candidate order from `scan`: every candidate of the
/// dataset scored against one test point and sorted ascending under the
/// shared (similarity, tuple, candidate) order, as `SortedCandidateScan`
/// returns it. Entries of tuples outside `tuples` are skipped. Filtering
/// keeps that order among the kept tuples, so the answer is bit-identical
/// to SS-DC on a copy of the kept rows.
template <typename S, bool kNormalized = false>
CountResult<S> SsDcCount(const IncompleteDataset& dataset,
                         const std::vector<int>& tuples,
                         const std::vector<ScoredCandidate>& scan, int k) {
  using W = TallyWeight<S, kNormalized>;
  const int n = dataset.num_examples();
  const int num_labels = dataset.num_labels();
  // Unreachable from a request: CheckOnSubset refuses lists shorter than k,
  // ExplainPrediction refuses k outside [1, n], and every served session's
  // k passed ValidateCleaningK (1 <= k <= training rows) when it was made.
  CP_CHECK_GE(k, 1);
  CP_CHECK_LE(static_cast<size_t>(k), tuples.size());

  CountResult<S> result;
  result.per_label.assign(static_cast<size_t>(num_labels), S::Zero());
  result.total = S::One();
  for (const int i : tuples) {
    result.total = S::Mul(result.total, W::Free(dataset.num_candidates(i)));
  }

  // Map each kept tuple to a slot inside its label's tree; -1 marks a
  // tuple outside the restriction.
  std::vector<int> slot_of(static_cast<size_t>(n), -1);
  std::vector<int> label_size(static_cast<size_t>(num_labels), 0);
  for (const int i : tuples) {
    slot_of[static_cast<size_t>(i)] =
        label_size[static_cast<size_t>(dataset.label(i))]++;
  }
  std::vector<SupportTree<S>> trees;
  trees.reserve(static_cast<size_t>(num_labels));
  for (int l = 0; l < num_labels; ++l) {
    trees.emplace_back(label_size[static_cast<size_t>(l)], k);
  }
  // Initial tallies: α = 0 everywhere, every candidate is "above".
  for (const int i : tuples) {
    const int m = dataset.num_candidates(i);
    trees[static_cast<size_t>(dataset.label(i))].SetLeaf(
        slot_of[static_cast<size_t>(i)], W::Below(0, m), W::Above(0, m));
  }

  std::vector<int> alpha(static_cast<size_t>(n), 0);

  for (const ScoredCandidate& entry : scan) {
    const int i = entry.tuple;
    if (slot_of[static_cast<size_t>(i)] < 0) continue;
    const int b = dataset.label(i);
    const int m = dataset.num_candidates(i);
    ++alpha[static_cast<size_t>(i)];
    trees[static_cast<size_t>(b)].SetLeaf(
        slot_of[static_cast<size_t>(i)],
        W::Below(alpha[static_cast<size_t>(i)], m),
        W::Above(alpha[static_cast<size_t>(i)], m));

    // Boundary tuple i is pinned in the top-K: exclude it from its label's
    // polynomial and shift that label's tally by one.
    const Poly<S> boundary_poly =
        trees[static_cast<size_t>(b)].ProductExcept(
            slot_of[static_cast<size_t>(i)]);

    const typename S::Value pinned = W::Pinned(m);
    EnumerateTallies(num_labels, k, [&](const std::vector<int>& gamma) {
      if (gamma[static_cast<size_t>(b)] < 1) return;
      typename S::Value support = S::Mul(
          pinned,
          PolyCoeff<S>(boundary_poly, gamma[static_cast<size_t>(b)] - 1));
      if (S::IsZero(support)) return;
      for (int l = 0; l < num_labels; ++l) {
        if (l == b) continue;
        support = S::Mul(support,
                         PolyCoeff<S>(trees[static_cast<size_t>(l)].Root(),
                                      gamma[static_cast<size_t>(l)]));
        if (S::IsZero(support)) return;
      }
      const int winner = ArgMaxLabel(gamma);
      auto& slot = result.per_label[static_cast<size_t>(winner)];
      slot = S::Add(slot, support);
    });
  }
  return result;
}

/// SS-DC over the whole dataset for test point `t`.
template <typename S, bool kNormalized = false>
CountResult<S> SsDcCount(const IncompleteDataset& dataset,
                         const std::vector<double>& t,
                         const SimilarityKernel& kernel, int k) {
  std::vector<int> tuples(static_cast<size_t>(dataset.num_examples()));
  std::iota(tuples.begin(), tuples.end(), 0);
  return SsDcCount<S, kNormalized>(dataset, tuples,
                                   SortedCandidateScan(dataset, t, kernel), k);
}

/// Labels achievable in at least one possible world, via SS-DC in the
/// Boolean possibility semiring — an exact Q1 building block for any |Y|.
inline std::vector<bool> SsPossibleLabels(const IncompleteDataset& dataset,
                                          const std::vector<double>& t,
                                          const SimilarityKernel& kernel,
                                          int k) {
  const CountResult<BoolSemiring> counts =
      SsDcCount<BoolSemiring>(dataset, t, kernel, k);
  return std::vector<bool>(counts.per_label.begin(), counts.per_label.end());
}

/// Q1 for every label via the Boolean-semiring SS-DC.
inline CheckResult SsCheck(const IncompleteDataset& dataset,
                           const std::vector<double>& t,
                           const SimilarityKernel& kernel, int k) {
  return CheckFromPossible(SsPossibleLabels(dataset, t, kernel, k));
}

/// Q1 on the restriction of `dataset` to `tuples` (ascending ids), read
/// from one ascending candidate scan (see the index-list `SsDcCount`).
inline CheckResult SsCheck(const IncompleteDataset& dataset,
                           const std::vector<int>& tuples,
                           const std::vector<ScoredCandidate>& scan, int k) {
  const CountResult<BoolSemiring> counts =
      SsDcCount<BoolSemiring>(dataset, tuples, scan, k);
  return CheckFromPossible(
      std::vector<bool>(counts.per_label.begin(), counts.per_label.end()));
}

}  // namespace cpclean

#endif  // CPCLEAN_CORE_SS_DC_H_
