#ifndef CPCLEAN_CORE_SIMILARITY_H_
#define CPCLEAN_CORE_SIMILARITY_H_

#include <vector>

#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"
#include "knn/ordering.h"

namespace cpclean {

/// Scores every active candidate of `dataset` against `t` into `out`, in
/// example-major order (all candidates of example 0, then example 1, ...).
/// `out` must hold `dataset.total_candidates()` doubles. Runs on the
/// dataset's flat storage and cached squared norms: a single batched kernel
/// call when the slab is compact, one per example otherwise — never one
/// per candidate. Returns the number of scores written.
int SimilarityScores(const IncompleteDataset& dataset,
                     const std::vector<double>& t,
                     const SimilarityKernel& kernel, double* out);

/// Similarity matrix s[i][j] = κ(x_{i,j}, t) between every candidate of the
/// incomplete dataset and the test point (paper §3.1.1, "similarity
/// candidates").
std::vector<std::vector<double>> SimilarityMatrix(
    const IncompleteDataset& dataset, const std::vector<double>& t,
    const SimilarityKernel& kernel);

/// All candidates scored against `t` and sorted ascending under the shared
/// deterministic total order — the scan order of the SS algorithms.
std::vector<ScoredCandidate> SortedCandidateScan(
    const IncompleteDataset& dataset, const std::vector<double>& t,
    const SimilarityKernel& kernel);

/// Sorts flat example-major `scores` of `dataset`'s candidates (the
/// `SimilarityScores` layout) into scan order, for callers that already
/// paid for the kernel evaluations.
std::vector<ScoredCandidate> SortScan(const IncompleteDataset& dataset,
                                      const std::vector<double>& scores);

}  // namespace cpclean

#endif  // CPCLEAN_CORE_SIMILARITY_H_
