#include "cleaning/certify.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/certain_predictor.h"
#include "core/fast_q2.h"

namespace cpclean {

Result<CertifyResult> CertifyTestPoint(const CleaningTask& task,
                                       const std::vector<double>& t,
                                       const SimilarityKernel& kernel,
                                       const CertifyOptions& options) {
  return CertifyOnDataset(task.incomplete, task.true_candidate, t, kernel,
                          options);
}

Result<CertifyResult> CertifyOnDataset(const IncompleteDataset& dataset,
                                       const std::vector<int>& true_candidate,
                                       const std::vector<double>& t,
                                       const SimilarityKernel& kernel,
                                       const CertifyOptions& options) {
  if (options.k < 1 || options.k > dataset.num_examples()) {
    return Status::InvalidArgument("k out of range");
  }
  if (static_cast<int>(true_candidate.size()) < dataset.num_examples()) {
    return Status::InvalidArgument(
        "true_candidate must cover every example");
  }
  if (static_cast<int>(t.size()) != dataset.dim()) {
    return Status::InvalidArgument("test point dimension mismatch");
  }
  IncompleteDataset working = dataset;
  const CertainPredictor predictor(&kernel, options.k);
  // The pool (and its per-worker engines) is selected lazily: the common
  // case — the prediction is already certain — returns from the first
  // Check without touching a pool. num_threads == 0 shares the process
  // pool; a positive value owns a private one.
  ThreadPool* pool = nullptr;
  std::unique_ptr<ThreadPool> owned_pool;
  std::vector<std::unique_ptr<FastQ2>> engines;
  // Workers lazily re-bind to the current cleaning round: FixExample keeps
  // the flat slab's shape but changes candidate counts, so each engine must
  // SetTestPoint (which auto-rebinds on the dataset version bump) and
  // recompute its pruning floor once per round before scoring its slice.
  std::vector<uint64_t> engine_round;
  std::vector<double> engine_floor;

  CertifyResult result;
  std::vector<int> dirty = working.DirtyExamples();
  std::vector<double> expected;
  uint64_t round = 0;
  while (true) {
    ++round;
    const CheckResult check = predictor.Check(working, t);
    if (check.CertainLabel() >= 0) {
      result.certified = true;
      result.certain_label = check.CertainLabel();
      return result;
    }
    if (dirty.empty()) {
      return Status::Internal(
          "dataset fully cleaned but prediction still uncertain");
    }
    if (options.max_cleaned >= 0 &&
        static_cast<int>(result.cleaned.size()) >= options.max_cleaned) {
      return result;  // budget exhausted, not certified
    }

    // Greedy step: clean the tuple minimizing the expected entropy of this
    // point's Q2 distribution. Tuples that can never enter the top-K are
    // provably irrelevant and skipped outright. Dirty tuples are scored in
    // parallel, each worker with its own FastQ2 bound to the same test
    // point; the serial argmin below tie-breaks by example index, so the
    // chosen tuple does not depend on thread count or dirty's ordering.
    constexpr double kPruned = std::numeric_limits<double>::infinity();
    expected.assign(dirty.size(), kPruned);
    if (pool == nullptr) {
      if (options.num_threads == 0) {
        pool = &GlobalThreadPool();
      } else {
        owned_pool = std::make_unique<ThreadPool>(options.num_threads);
        pool = owned_pool.get();
      }
      engines.resize(static_cast<size_t>(pool->num_threads()));
      engine_round.assign(engines.size(), 0);
      engine_floor.assign(engines.size(), 0.0);
    }
    pool->ParallelFor(
        static_cast<int64_t>(dirty.size()), [&](int64_t p, int worker) {
          auto& engine = engines[static_cast<size_t>(worker)];
          if (!engine) {
            engine = std::make_unique<FastQ2>(&working, options.k, 1e-9);
          }
          if (engine_round[static_cast<size_t>(worker)] != round) {
            engine->SetTestPoint(t, kernel);
            engine_round[static_cast<size_t>(worker)] = round;
            engine_floor[static_cast<size_t>(worker)] = engine->TopKFloor();
          }
          FastQ2& q2 = *engine;
          const double floor = engine_floor[static_cast<size_t>(worker)];
          const int i = dirty[static_cast<size_t>(p)];
          if (q2.MaxSimilarity(i) < floor) return;
          const int m = working.num_candidates(i);
          // One scan-order sweep: bit-identical to (and cheaper than) m
          // separate EntropyPinned(i, j) calls summed in candidate order.
          const std::vector<double>& pinned = q2.EntropyPinnedSweep(i);
          double sum = 0.0;
          for (int j = 0; j < m; ++j) sum += pinned[static_cast<size_t>(j)];
          expected[static_cast<size_t>(p)] =
              sum / static_cast<double>(m);
        });
    int chosen_pos = -1;
    for (size_t p = 0; p < dirty.size(); ++p) {
      if (expected[p] == kPruned) continue;
      if (chosen_pos < 0 || expected[p] < expected[static_cast<size_t>(chosen_pos)] ||
          (expected[p] == expected[static_cast<size_t>(chosen_pos)] &&
           dirty[p] < dirty[static_cast<size_t>(chosen_pos)])) {
        chosen_pos = static_cast<int>(p);
      }
    }
    if (chosen_pos < 0) {
      // Every dirty tuple is provably outside this point's top-K in every
      // world, yet the prediction is uncertain — cannot happen: an
      // uncertain prediction requires at least one influential dirty tuple.
      return Status::Internal("no influential dirty tuple found");
    }
    const int chosen = dirty[static_cast<size_t>(chosen_pos)];
    dirty[static_cast<size_t>(chosen_pos)] = dirty.back();
    dirty.pop_back();
    working.FixExample(chosen,
                       true_candidate[static_cast<size_t>(chosen)]);
    result.cleaned.push_back(chosen);
  }
}

}  // namespace cpclean
