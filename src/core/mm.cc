#include "core/mm.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "core/similarity.h"
#include "knn/ordering.h"
#include "knn/top_k.h"
#include "knn/vote.h"

namespace cpclean {

std::vector<bool> MmPossibleLabels(const std::vector<double>& min_sim,
                                   const std::vector<double>& max_sim,
                                   const std::vector<int>& labels,
                                   const std::vector<int>& tuples, int k) {
  constexpr int kNumLabels = 2;
  // Unreachable from a request: CheckOnSubset refuses lists shorter than
  // k, ExplainPrediction refuses k outside [1, n], and the dataset
  // overload below checks 1 <= k <= n.
  CP_CHECK_GE(k, 1);
  CP_CHECK_LE(static_cast<size_t>(k), tuples.size());

  std::vector<bool> possible(kNumLabels, false);
  std::vector<ScoredCandidate> world(tuples.size());
  std::vector<int> top_labels;
  top_labels.reserve(static_cast<size_t>(k));
  for (int l = 0; l < kNumLabels; ++l) {
    // The l-extreme world (Equation B.1) over the listed tuples.
    for (size_t w = 0; w < tuples.size(); ++w) {
      const size_t i = static_cast<size_t>(tuples[w]);
      world[w] = {labels[i] == l ? max_sim[i] : min_sim[i], tuples[w], 0};
    }
    top_labels.clear();
    for (const int idx : SelectTopK(world, k)) {
      top_labels.push_back(labels[static_cast<size_t>(world[idx].tuple)]);
    }
    possible[static_cast<size_t>(l)] =
        MajorityVote(top_labels, kNumLabels) == l;
  }
  return possible;
}

std::vector<bool> MmPossibleLabels(const IncompleteDataset& dataset,
                                   const std::vector<double>& t,
                                   const SimilarityKernel& kernel, int k) {
  const int n = dataset.num_examples();
  // Unreachable from a request: CertainPredictor::Check routes |Y| != 2 to
  // SsCheck, and every served session's k passed ValidateCleaningK
  // (1 <= k <= training rows) when it was created.
  CP_CHECK_EQ(dataset.num_labels(), 2)
      << "MM is only sound for binary classification (paper Lemma B.1); "
         "use SsCheck for |Y| > 2";
  CP_CHECK_GE(k, 1);
  CP_CHECK_LE(k, n);

  std::vector<double> scores(
      static_cast<size_t>(dataset.total_candidates()));
  SimilarityScores(dataset, t, kernel, scores.data());
  std::vector<double> min_sim(static_cast<size_t>(n));
  std::vector<double> max_sim(static_cast<size_t>(n));
  std::vector<int> labels(static_cast<size_t>(n));
  size_t pos = 0;
  for (int i = 0; i < n; ++i) {
    double lo = scores[pos], hi = scores[pos];
    const size_t end = pos + static_cast<size_t>(dataset.num_candidates(i));
    for (++pos; pos < end; ++pos) {
      lo = std::min(lo, scores[pos]);
      hi = std::max(hi, scores[pos]);
    }
    min_sim[static_cast<size_t>(i)] = lo;
    max_sim[static_cast<size_t>(i)] = hi;
    labels[static_cast<size_t>(i)] = dataset.label(i);
  }
  std::vector<int> tuples(static_cast<size_t>(n));
  std::iota(tuples.begin(), tuples.end(), 0);
  return MmPossibleLabels(min_sim, max_sim, labels, tuples, k);
}

CheckResult MmCheck(const IncompleteDataset& dataset,
                    const std::vector<double>& t,
                    const SimilarityKernel& kernel, int k) {
  return CheckFromPossible(MmPossibleLabels(dataset, t, kernel, k));
}

}  // namespace cpclean
