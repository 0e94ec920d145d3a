#include "knn/top_k.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"

namespace cpclean {

std::vector<int> SelectTopK(const std::vector<ScoredCandidate>& items, int k) {
  // Unreachable from a request: every caller has already checked that its
  // `items` hold at least k entries — MM's decide half (behind
  // ValidateCleaningK, ExplainPrediction's k range and CheckOnSubset's size
  // check), BruteForceCount's k <= n, and the KnnClassifier constructor.
  CP_CHECK_GT(k, 0);
  CP_CHECK_LE(static_cast<size_t>(k), items.size());
  // Min-heap of the current best k, keyed by "least similar at top".
  auto worse = [&items](int a, int b) {
    // Priority queue keeps the *largest* under the comparator at top, so
    // invert: top() should be the least similar member.
    return MoreSimilar(items[static_cast<size_t>(a)],
                       items[static_cast<size_t>(b)]);
  };
  std::priority_queue<int, std::vector<int>, decltype(worse)> heap(worse);
  for (int i = 0; i < static_cast<int>(items.size()); ++i) {
    if (static_cast<int>(heap.size()) < k) {
      heap.push(i);
    } else if (MoreSimilar(items[static_cast<size_t>(i)],
                           items[static_cast<size_t>(heap.top())])) {
      heap.pop();
      heap.push(i);
    }
  }
  std::vector<int> out;
  out.reserve(static_cast<size_t>(k));
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());  // most similar first
  return out;
}

ScoredCandidate TopKBoundary(const std::vector<ScoredCandidate>& items,
                             int k) {
  std::vector<int> top = SelectTopK(items, k);
  return items[static_cast<size_t>(top.back())];
}

}  // namespace cpclean
