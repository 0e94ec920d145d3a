#ifndef CPCLEAN_CORE_MM_H_
#define CPCLEAN_CORE_MM_H_

#include <vector>

#include "core/cp_queries.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {

/// MinMax (MM), paper §3.2 / Algorithm 2 / Appendix B: the dedicated Q1
/// checker for binary classification.
///
/// For each label l it greedily builds the l-extreme world E_l — candidates
/// with label l take their *most* similar value, others their *least*
/// similar — and Lemma B.2 shows E_l predicts l iff some possible world
/// predicts l. O(N·M + |Y|·(N log K + K)), with no sort over all
/// candidates. Valid only for |Y| = 2 (Lemma B.1's case analysis breaks
/// for three labels); calls with |Y| != 2 CHECK-fail — use SsCheck there.
///
/// MM is split into "score" and "decide". Scoring reduces each tuple to
/// its least and most similar candidate score; deciding builds the extreme
/// worlds from those alone. A world holds one candidate per tuple and ties
/// between tuples break by tuple id, so which candidate attains an extreme
/// never matters.

/// The decide half. `min_sim[i]`, `max_sim[i]` and `labels[i]` (in {0, 1})
/// describe tuple i; `tuples` lists the tuples of the restriction to
/// decide on, in ascending id order. possible[l] = true iff the l-extreme
/// world of that restriction predicts l. O(|tuples| log k) per label.
/// Requires 1 <= k <= tuples.size() and ids inside the three vectors.
std::vector<bool> MmPossibleLabels(const std::vector<double>& min_sim,
                                   const std::vector<double>& max_sim,
                                   const std::vector<int>& labels,
                                   const std::vector<int>& tuples, int k);

/// possible[l] = true iff the l-extreme world predicts l, i.e., iff label l
/// is predicted in at least one possible world. Scores `t` once into a flat
/// buffer, takes the per-tuple extremes, and decides on every tuple.
std::vector<bool> MmPossibleLabels(const IncompleteDataset& dataset,
                                   const std::vector<double>& t,
                                   const SimilarityKernel& kernel, int k);

/// Q1 for every label.
CheckResult MmCheck(const IncompleteDataset& dataset,
                    const std::vector<double>& t,
                    const SimilarityKernel& kernel, int k);

}  // namespace cpclean

#endif  // CPCLEAN_CORE_MM_H_
