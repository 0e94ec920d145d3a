#ifndef CPCLEAN_CORE_WITNESS_H_
#define CPCLEAN_CORE_WITNESS_H_

#include <vector>

#include "common/result.h"
#include "core/cp_queries.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {

/// Provenance of one certain-prediction answer: which tuples of the
/// incomplete dataset *determine* whether a test point is certified.
///
/// Soundness argument (same pruning the selection loop uses): let
/// `floor` be the K-th largest per-tuple minimum similarity. At least K
/// tuples beat `floor` in every possible world, so a tuple whose maximum
/// similarity is strictly below it can never enter the top-K — deleting
/// it from the dataset changes no world's prediction. The tuples at or
/// above the floor are therefore a sound witness superset, and greedy
/// deletion inside that superset yields a 1-minimal witness set: the
/// restriction of the dataset to `tuples` reproduces (certain, label)
/// exactly, and removing any single member flips or un-certifies it.
struct WitnessSet {
  /// The full-dataset Q1 answer the witnesses reproduce.
  bool certain = false;
  int label = -1;  // certain label, -1 when worlds disagree

  /// Minimal witness tuple ids (original dataset ids, ascending).
  std::vector<int> tuples;

  /// Q2 boundary support: the tuples whose candidates carried world mass
  /// before the FastQ2 scan reached 1 - epsilon (ascending). A superset
  /// view of "what the counting query actually looked at".
  std::vector<int> support;

  /// True when greedy minimization reached a fixpoint (every remaining
  /// tuple was re-tried for removal against the final set and failed).
  /// False only when the candidate set exceeded the minimization budget.
  bool minimal = true;
};

struct WitnessOptions {
  /// Greedy deletion passes before giving up on a fixpoint.
  int max_passes = 8;
  /// Candidate sets larger than this skip minimization (minimal=false).
  /// Each deletion attempt is one decision on an index list of the current
  /// set W, read from the explain's one scoring sweep with nothing copied
  /// or scored again: O(|W| log k) for |Y| = 2, one SS-DC pass over W's
  /// candidates otherwise.
  int max_minimize_tuples = 256;
};

/// Q1 on the restriction of `dataset` to `tuples`, decided on the index
/// list: the tuples are never copied out of `dataset`. Ids must be
/// strictly ascending (so the shared tie-break by tuple id orders the kept
/// tuples as a copy of them would be ordered) and inside the dataset.
/// Fails when fewer than k tuples are listed or k is outside
/// [1, FastQ2::kMaxK].
Result<CheckResult> CheckOnSubset(const IncompleteDataset& dataset,
                                  const std::vector<int>& tuples,
                                  const std::vector<double>& t,
                                  const SimilarityKernel& kernel, int k);

/// Extracts the witness set for test point `t`: prunes to the top-K-floor
/// candidate superset, verifies the restriction reproduces the full
/// answer, then greedily minimizes. Deterministic: depends only on the
/// dataset bits and the kernel's (bit-identical) similarities, never on
/// thread count or SIMD level.
Result<WitnessSet> ExplainPrediction(const IncompleteDataset& dataset,
                                     const std::vector<double>& t,
                                     const SimilarityKernel& kernel, int k,
                                     const WitnessOptions& options =
                                         WitnessOptions());

/// True when restricting `dataset` to `tuples` reproduces exactly
/// (want_certain, want_label) for `t` — the bit-for-bit reproduction
/// contract a served witness set promises.
Result<bool> WitnessReproduces(const IncompleteDataset& dataset,
                               const std::vector<int>& tuples,
                               const std::vector<double>& t,
                               const SimilarityKernel& kernel, int k,
                               bool want_certain, int want_label);

}  // namespace cpclean

#endif  // CPCLEAN_CORE_WITNESS_H_
