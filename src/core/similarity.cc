#include "core/similarity.h"

#include <algorithm>

#include "common/logging.h"

namespace cpclean {

int SimilarityScores(const IncompleteDataset& dataset,
                     const std::vector<double>& t,
                     const SimilarityKernel& kernel, double* out) {
  const int n = dataset.num_examples();
  if (n == 0) return 0;
  CP_CHECK_EQ(static_cast<int>(t.size()), dataset.dim());
  const int dim = dataset.dim();
  if (dataset.flat_is_compact()) {
    // No retired rows: the whole slab is one contiguous batch.
    const int total = dataset.total_candidates();
    kernel.SimilarityBatchNorms(dataset.flat_data(), dataset.flat_sq_norms(),
                                total, dim, t.data(), out);
    return total;
  }
  int written = 0;
  for (int i = 0; i < n; ++i) {
    const int m = dataset.num_candidates(i);
    const int row = dataset.flat_row(i, 0);
    kernel.SimilarityBatchNorms(
        dataset.flat_data() + static_cast<size_t>(row) * dim,
        dataset.flat_sq_norms() + row, m, dim, t.data(), out + written);
    written += m;
  }
  return written;
}

std::vector<std::vector<double>> SimilarityMatrix(
    const IncompleteDataset& dataset, const std::vector<double>& t,
    const SimilarityKernel& kernel) {
  std::vector<double> scores(
      static_cast<size_t>(dataset.total_candidates()));
  SimilarityScores(dataset, t, kernel, scores.data());
  std::vector<std::vector<double>> sims(
      static_cast<size_t>(dataset.num_examples()));
  size_t pos = 0;
  for (int i = 0; i < dataset.num_examples(); ++i) {
    const size_t m = static_cast<size_t>(dataset.num_candidates(i));
    sims[static_cast<size_t>(i)].assign(scores.begin() + pos,
                                        scores.begin() + pos + m);
    pos += m;
  }
  return sims;
}

std::vector<ScoredCandidate> SortScan(
    const std::vector<std::vector<double>>& sims) {
  std::vector<ScoredCandidate> scan;
  size_t total = 0;
  for (const auto& row : sims) total += row.size();
  scan.reserve(total);
  for (int i = 0; i < static_cast<int>(sims.size()); ++i) {
    for (int j = 0; j < static_cast<int>(sims[static_cast<size_t>(i)].size());
         ++j) {
      scan.push_back({sims[static_cast<size_t>(i)][static_cast<size_t>(j)],
                      i, j});
    }
  }
  std::sort(scan.begin(), scan.end(), LessSimilar);
  return scan;
}

std::vector<ScoredCandidate> SortedCandidateScan(
    const IncompleteDataset& dataset, const std::vector<double>& t,
    const SimilarityKernel& kernel) {
  return SortScan(SimilarityMatrix(dataset, t, kernel));
}

}  // namespace cpclean
