#include "cleaning/cp_clean.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/certain_predictor.h"
#include "core/fast_q2.h"
#include "core/ss1.h"
#include "core/ss_dc.h"
#include "knn/knn_classifier.h"

namespace cpclean {
namespace {

// Fills one selection row for the validation point bound to `q2`: for each
// dirty[p], the expected entropy of the point's Q2 prediction after
// cleaning it (Equation 4, uniform over its candidates), passed on as
// emit(p, entropy, pruned). A `pruned` tuple can never enter the point's
// top-K in any world, so pinning it leaves the distribution unchanged.
template <typename Emit>
void FillSelectionRow(FastQ2& q2, const IncompleteDataset& working,
                      const std::vector<int>& dirty, const Emit& emit) {
  const double floor = q2.TopKFloor();
  double current_entropy = -1.0;  // computed lazily
  for (size_t p = 0; p < dirty.size(); ++p) {
    const int i = dirty[p];
    if (q2.MaxSimilarity(i) < floor) {
      if (current_entropy < 0.0) current_entropy = q2.EntropyUnpinned();
      emit(p, current_entropy, true);
      continue;
    }
    const int m = working.num_candidates(i);
    // One sweep walks the boundary scan once for all m candidates; summing
    // its entries in candidate order keeps the reduction bit-identical to m
    // separate EntropyPinned calls.
    const std::vector<double>& pinned = q2.EntropyPinnedSweep(i);
    double sum = 0.0;
    for (int j = 0; j < m; ++j) sum += pinned[static_cast<size_t>(j)];
    emit(p, sum / static_cast<double>(m), false);
  }
}

}  // namespace

Status ValidateCleaningK(int k, int num_training_rows) {
  if (k < 1) {
    return Status::InvalidArgument(StrFormat("k must be >= 1, got %d", k));
  }
  if (k > FastQ2::kMaxK) {
    return Status::InvalidArgument(StrFormat(
        "k = %d exceeds the FastQ2 engine cap of %d", k, FastQ2::kMaxK));
  }
  if (k > num_training_rows) {
    return Status::InvalidArgument(StrFormat(
        "k = %d exceeds the %d training examples", k, num_training_rows));
  }
  return Status::OK();
}

CleaningSession::CleaningSession(const CleaningTask* task,
                                 const SimilarityKernel* kernel,
                                 const CpCleanOptions& options)
    : task_(task), kernel_(kernel), options_(options) {
  CP_CHECK(task_ != nullptr);
  CP_CHECK(kernel_ != nullptr);
  CP_CHECK_GE(options_.k, 1);
  if (options_.num_threads == 0) {
    pool_ = &GlobalThreadPool();
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    pool_ = owned_pool_.get();
  }
  Reset();
}

Result<std::unique_ptr<CleaningSession>> CleaningSession::Create(
    const CleaningTask* task, const SimilarityKernel* kernel,
    const CpCleanOptions& options) {
  if (task == nullptr) return Status::InvalidArgument("task is null");
  if (kernel == nullptr) return Status::InvalidArgument("kernel is null");
  CP_RETURN_NOT_OK(
      ValidateCleaningK(options.k, task->incomplete.num_examples()));
  return std::make_unique<CleaningSession>(task, kernel, options);
}

void CleaningSession::Reset() {
  working_ = task_->incomplete;
  world_ = task_->default_x;
  cleaned_.assign(static_cast<size_t>(working_.num_examples()), 0);
  val_certain_.assign(task_->val_x.size(), 0);
  num_val_certain_ = 0;
  num_cleaned_ = 0;
  val_certainty_fresh_ = false;
  // Rows that are already clean in the dirty table count as cleaned and
  // their world value is their (single) candidate.
  for (int i = 0; i < working_.num_examples(); ++i) {
    if (working_.num_candidates(i) == 1) {
      cleaned_[static_cast<size_t>(i)] = 1;
      world_[static_cast<size_t>(i)] = working_.candidate(i, 0);
    }
  }
  dirty_.clear();
  for (int i = 0; i < working_.num_examples(); ++i) {
    if (!cleaned_[static_cast<size_t>(i)]) dirty_.push_back(i);
  }
  cleaned_order_.clear();
  audit_.clear();
  last_newly_certain_.clear();
  cache_ = SelectionCache{};
  // `working_ = task copy` above wiped any journal the serving layer
  // configured; re-establish it.
  ConfigureWorkingStorage(storage_);
}

void CleaningSession::ConfigureWorkingStorage(
    const WorkingStorageOptions& storage) {
  storage_ = storage;
  if (storage_.journal) working_.EnableJournal();
}

Status CleaningSession::Restore(const CleaningSnapshot& snapshot) {
  Reset();
  if (snapshot.audit.size() > snapshot.cleaned_order.size()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot audit covers %d steps but only %d were cleaned",
        static_cast<int>(snapshot.audit.size()),
        static_cast<int>(snapshot.cleaned_order.size())));
  }
  for (size_t s = 0; s < snapshot.audit.size(); ++s) {
    if (snapshot.audit[s].example != snapshot.cleaned_order[s]) {
      return Status::InvalidArgument(StrFormat(
          "audit step %d cleans example %d but the cleaning order says %d",
          static_cast<int>(s) + 1, snapshot.audit[s].example,
          snapshot.cleaned_order[s]));
    }
  }
  const auto take = [this](int i) -> Status {
    if (i < 0 || i >= working_.num_examples()) {
      return Status::InvalidArgument(StrFormat(
          "snapshot cleans example %d outside [0, %d)", i,
          working_.num_examples()));
    }
    if (cleaned_[static_cast<size_t>(i)]) {
      return Status::InvalidArgument(StrFormat(
          "snapshot cleans example %d twice (or it was born clean)", i));
    }
    const auto it = std::find(dirty_.begin(), dirty_.end(), i);
    CP_CHECK(it != dirty_.end());  // implied by !cleaned_[i]
    *it = dirty_.back();
    dirty_.pop_back();
    CleanExample(i);
    return Status::OK();
  };
  // Prefix covered by stored audit: replay the fixes and adopt the stored
  // records, then refresh once at the boundary. Recomputing from scratch
  // marks exactly the points the snapshotted run had marked: certainty is
  // monotone under cleaning (a refinement only removes possible worlds),
  // and the source session refreshed after its last step.
  const size_t prefix = snapshot.audit.size();
  for (size_t s = 0; s < prefix; ++s) {
    CP_RETURN_NOT_OK(take(snapshot.cleaned_order[s]));
  }
  audit_ = snapshot.audit;
  RefreshValCertainty();
  // Suffix without stored attribution (e.g. steps a cleaning log appended
  // after the base snapshot, or a pre-provenance snapshot): recompute the
  // per-step newly-certain sets. Bit-identical to the original run's
  // records, again by monotonicity of certainty under cleaning.
  for (size_t s = prefix; s < snapshot.cleaned_order.size(); ++s) {
    const int i = snapshot.cleaned_order[s];
    CP_RETURN_NOT_OK(take(i));
    RefreshValCertainty();
    RecordAudit(i);
  }
  return Status::OK();
}

double CleaningSession::RefreshValCertainty() {
  const CertainPredictor predictor(kernel_, options_.k);
  const int64_t num_val = static_cast<int64_t>(task_->val_x.size());
  // Each validation point is an independent Q1 check; workers write only
  // their own slot, the state update below stays serial.
  std::vector<uint8_t> newly_certain(task_->val_x.size(), 0);
  pool_->ParallelFor(num_val, [&](int64_t v, int) {
    if (val_certain_[static_cast<size_t>(v)]) return;  // monotone
    newly_certain[static_cast<size_t>(v)] =
        predictor.IsCertain(working_, task_->val_x[static_cast<size_t>(v)])
            ? 1
            : 0;
  });
  last_newly_certain_.clear();
  for (size_t v = 0; v < task_->val_x.size(); ++v) {
    if (newly_certain[v]) {
      val_certain_[v] = 1;
      ++num_val_certain_;
      last_newly_certain_.push_back(static_cast<int>(v));
    }
  }
  val_certainty_fresh_ = true;
  if (task_->val_x.empty()) return 1.0;
  return static_cast<double>(num_val_certain_) /
         static_cast<double>(task_->val_x.size());
}

double CleaningSession::FracValCertain() {
  if (!val_certainty_fresh_) return RefreshValCertainty();
  if (task_->val_x.empty()) return 1.0;
  return static_cast<double>(num_val_certain_) /
         static_cast<double>(task_->val_x.size());
}

double CleaningSession::CurrentTestAccuracy() const {
  return task_->AccuracyWith(world_, task_->test_x, task_->test_y, *kernel_,
                             options_.k);
}

double CleaningSession::MeanValEntropy() const {
  const CertainPredictor predictor(kernel_, options_.k);
  const int64_t num_val = static_cast<int64_t>(task_->val_x.size());
  std::vector<double> entropy(task_->val_x.size(), 0.0);
  pool_->ParallelFor(num_val, [&](int64_t v, int) {
    if (val_certain_[static_cast<size_t>(v)]) return;
    entropy[static_cast<size_t>(v)] = predictor.PredictionEntropy(
        working_, task_->val_x[static_cast<size_t>(v)]);
  });
  // Reduce in validation order so the sum is thread-count-invariant.
  double total = 0.0;
  for (size_t v = 0; v < task_->val_x.size(); ++v) {
    if (val_certain_[v]) continue;
    total += entropy[v];
  }
  return task_->val_x.empty()
             ? 0.0
             : total / static_cast<double>(task_->val_x.size());
}

double CleaningSession::ExpectedEntropyAfterCleaning(int i) {
  if (task_->val_x.empty()) return 0.0;  // as MeanValEntropy
  const CertainPredictor predictor(kernel_, options_.k);
  const std::vector<std::vector<double>> saved =
      working_.example(i).candidates;
  const int m = static_cast<int>(saved.size());
  double expected = 0.0;
  for (int j = 0; j < m; ++j) {
    // Condition on candidate j being the truth (uniform prior).
    working_.ReplaceCandidates(i, {saved[static_cast<size_t>(j)]});
    double entropy_sum = 0.0;
    for (size_t v = 0; v < task_->val_x.size(); ++v) {
      // CP'ed points have zero entropy in every refinement of the dataset:
      // conditioning only removes possible worlds.
      if (val_certain_[v]) continue;
      entropy_sum += predictor.PredictionEntropy(working_, task_->val_x[v]);
    }
    expected += entropy_sum / static_cast<double>(task_->val_x.size());
  }
  working_.ReplaceCandidates(i, saved);
  return expected / static_cast<double>(m);
}

std::vector<double> CleaningSession::SelectionScores(
    const std::vector<int>& dirty, bool use_cache) {
  static MetricCounter& rows_reused = MetricsRegistry::Get().GetCounter(
      "cleaning.selection_rows_reused_total");
  static MetricCounter& rows_computed = MetricsRegistry::Get().GetCounter(
      "cleaning.selection_rows_computed_total");
  // First compute-layer fault site. Unlike the I/O sites this one throws —
  // the compute path has no Status plumbing — so failure rules are for
  // library-level tests that catch; under a live server use sleep rules
  // only (like serve.exec).
  if (FaultHit("compute.selection_scores")) {
    throw std::runtime_error("injected fault: compute.selection_scores");
  }
  std::vector<double> score(dirty.size(), 0.0);
  std::vector<int> active;
  active.reserve(task_->val_x.size());
  for (size_t v = 0; v < task_->val_x.size(); ++v) {
    if (!val_certain_[v]) active.push_back(static_cast<int>(v));
  }
  if (active.empty() || dirty.empty()) return score;

  // One FastQ2 engine per worker (trees and scan are query-local state);
  // each row is filled by one worker, and the reduction below replays the
  // additions in ascending validation order — so score is bit-identical
  // for every num_threads, including the serial pre-pool behavior at
  // num_threads = 1, and for every split between cached and streamed rows.
  std::vector<std::unique_ptr<FastQ2>> engines(
      static_cast<size_t>(pool_->num_threads()));
  const auto fill = [&](int v, int worker, const auto& emit) {
    auto& engine = engines[static_cast<size_t>(worker)];
    if (!engine) {
      engine = std::make_unique<FastQ2>(&working_, options_.k,
                                        options_.fast_epsilon);
    }
    engine->SetTestPoint(task_->val_x[static_cast<size_t>(v)], *kernel_);
    FillSelectionRow(*engine, working_, dirty, emit);
  };

  std::vector<int> columns;  // dirty position -> cache column
  std::vector<int> refill;   // cached rows recomputed by this selection
  size_t reused = 0;
  const auto row_start = [this](int v) {
    return static_cast<size_t>(cache_.slot[static_cast<size_t>(v)]) *
           cache_.width;
  };
  if (use_cache) {
    const size_t moved = cleaned_order_.size() - cache_.cleaned;
    const bool reusable = cache_.stamped && moved <= 1 &&
                          working_.version() - cache_.version == moved;
    if (!reusable) {
      // Columns are today's dirty set, which only shrinks until the next
      // Reset. Rows go to the first active points that fit the byte bound;
      // a point certified later keeps its row unread.
      cache_ = SelectionCache{};
      cache_.column.assign(static_cast<size_t>(working_.num_examples()), -1);
      for (size_t p = 0; p < dirty.size(); ++p) {
        cache_.column[static_cast<size_t>(dirty[p])] = static_cast<int>(p);
      }
      cache_.width = dirty.size();
      const size_t capacity = std::min(
          active.size(), options_.max_contrib_bytes /
                             (cache_.width * (sizeof(double) + 1)));
      cache_.rows.assign(capacity * cache_.width, 0.0);
      cache_.pruned.assign(capacity * cache_.width, 0);
      cache_.slot.assign(task_->val_x.size(), -1);
      for (size_t s = 0; s < capacity; ++s) {
        cache_.slot[static_cast<size_t>(active[s])] = static_cast<int>(s);
      }
    }
    cache_.stamped = false;  // until this selection completes
    // The column of the example cleaned since the stamp, if any.
    int changed = -1;
    if (reusable && moved == 1) {
      changed = cache_.column[static_cast<size_t>(cleaned_order_.back())];
      CP_CHECK_GE(changed, 0);
    }
    for (const int v : active) {
      if (cache_.slot[static_cast<size_t>(v)] < 0) continue;  // streamed
      if (!reusable ||
          (changed >= 0 &&
           !cache_.pruned[row_start(v) + static_cast<size_t>(changed)])) {
        refill.push_back(v);
      } else {
        ++reused;
      }
    }
    columns.resize(dirty.size());
    for (size_t p = 0; p < dirty.size(); ++p) {
      columns[p] = cache_.column[static_cast<size_t>(dirty[p])];
    }
    pool_->ParallelFor(
        static_cast<int64_t>(refill.size()), [&](int64_t r, int worker) {
          const int v = refill[static_cast<size_t>(r)];
          double* row = cache_.rows.data() + row_start(v);
          uint8_t* pruned = cache_.pruned.data() + row_start(v);
          fill(v, worker, [&](size_t p, double entropy, bool below_floor) {
            row[columns[p]] = entropy;
            pruned[columns[p]] = below_floor ? 1 : 0;
          });
        });
  }

  // Points without a cached row are filled in ordered blocks as the
  // reduction reaches them, so their buffer stays within what the cache
  // leaves of options_.max_contrib_bytes (at least one row per worker).
  std::vector<int> streamed;
  for (const int v : active) {
    if (!use_cache || cache_.slot[static_cast<size_t>(v)] < 0) {
      streamed.push_back(v);
    }
  }
  const size_t cached_bytes =
      use_cache ? cache_.rows.size() * (sizeof(double) + 1) : 0;
  const size_t spare = options_.max_contrib_bytes - cached_bytes;
  const size_t block = std::min(
      streamed.size(),
      std::max(static_cast<size_t>(pool_->num_threads()),
               spare / (dirty.size() * sizeof(double))));
  std::vector<double> buffer(block * dirty.size());
  size_t next = 0;  // streamed rows reduced so far
  for (const int v : active) {
    if (use_cache && cache_.slot[static_cast<size_t>(v)] >= 0) {
      const double* row = cache_.rows.data() + row_start(v);
      for (size_t p = 0; p < dirty.size(); ++p) {
        score[p] += row[columns[p]];
      }
      continue;
    }
    if (next % block == 0) {
      const size_t first = next;
      pool_->ParallelFor(
          static_cast<int64_t>(std::min(block, streamed.size() - first)),
          [&](int64_t b, int worker) {
            double* row = buffer.data() + static_cast<size_t>(b) * dirty.size();
            fill(streamed[first + static_cast<size_t>(b)], worker,
                 [row](size_t p, double entropy, bool) { row[p] = entropy; });
          });
    }
    const double* row = buffer.data() + (next % block) * dirty.size();
    for (size_t p = 0; p < dirty.size(); ++p) score[p] += row[p];
    ++next;
  }
  if (use_cache) {
    cache_.stamped = true;
    cache_.version = working_.version();
    cache_.cleaned = cleaned_order_.size();
    rows_reused.Add(reused);
    rows_computed.Add(refill.size() + streamed.size());
  }
  return score;
}

void CleaningSession::CleanExample(int i) {
  CP_CHECK(!cleaned_[static_cast<size_t>(i)]);
  const int true_j = task_->true_candidate[static_cast<size_t>(i)];
  working_.FixExample(i, true_j);
  world_[static_cast<size_t>(i)] = working_.candidate(i, 0);
  cleaned_[static_cast<size_t>(i)] = 1;
  cleaned_order_.push_back(i);
  ++num_cleaned_;
  val_certainty_fresh_ = false;
}

int CleaningSession::SelectGreedyPos() {
  // Algorithm 3 lines 5-9: pick the example whose cleaning minimizes the
  // expected conditional entropy of the validation predictions. Ties break
  // toward the smallest example index, which keeps the choice independent
  // of dirty_'s ordering (it is unsorted after swap-and-pop removals).
  int chosen_pos = 0;
  double best = std::numeric_limits<double>::infinity();
  if (options_.use_fast_selection) {
    const std::vector<double> score =
        SelectionScores(dirty_, /*use_cache=*/true);
    for (size_t p = 0; p < score.size(); ++p) {
      if (score[p] < best ||
          (score[p] == best &&
           dirty_[p] < dirty_[static_cast<size_t>(chosen_pos)])) {
        best = score[p];
        chosen_pos = static_cast<int>(p);
      }
    }
  } else {
    for (size_t p = 0; p < dirty_.size(); ++p) {
      const double e = ExpectedEntropyAfterCleaning(dirty_[p]);
      if (e < best ||
          (e == best &&
           dirty_[p] < dirty_[static_cast<size_t>(chosen_pos)])) {
        best = e;
        chosen_pos = static_cast<int>(p);
      }
    }
  }
  return chosen_pos;
}

int CleaningSession::StepGreedy() {
  if (!val_certainty_fresh_) RefreshValCertainty();
  if (dirty_.empty()) return -1;
  if (options_.stop_when_all_certain &&
      num_val_certain_ == static_cast<int>(task_->val_x.size())) {
    return -1;
  }
  const int chosen_pos = SelectGreedyPos();
  const int chosen = dirty_[static_cast<size_t>(chosen_pos)];
  dirty_[static_cast<size_t>(chosen_pos)] = dirty_.back();
  dirty_.pop_back();
  CleanExample(chosen);
  RefreshValCertainty();
  RecordAudit(chosen);
  return chosen;
}

void CleaningSession::RecordAudit(int example) {
  CleaningAuditRecord record;
  record.step = num_cleaned_;
  record.example = example;
  record.version = working_.version();
  record.newly_certain = last_newly_certain_;
  audit_.push_back(std::move(record));
}

void CleaningSession::LogStep(CleaningRunResult* result, int step,
                              int cleaned_example) {
  CleaningStepLog log;
  log.step = step;
  log.cleaned_example = cleaned_example;
  log.frac_val_certain = RefreshValCertainty();
  if (cleaned_example >= 0) RecordAudit(cleaned_example);
  log.test_accuracy =
      options_.track_test_accuracy ? CurrentTestAccuracy() : 0.0;
  log.mean_val_entropy = options_.track_entropy ? MeanValEntropy() : 0.0;
  result->steps.push_back(log);
}

CleaningRunResult CleaningSession::RunLoop(bool greedy, Rng* rng) {
  Reset();
  CleaningRunResult result;
  LogStep(&result, 0, -1);

  int step = 0;
  while (!dirty_.empty()) {
    if (options_.stop_when_all_certain &&
        num_val_certain_ == static_cast<int>(task_->val_x.size())) {
      result.all_val_certain = true;
      break;
    }
    if (options_.max_cleaned >= 0 && step >= options_.max_cleaned) break;

    int chosen_pos = 0;
    if (greedy) {
      chosen_pos = SelectGreedyPos();
    } else {
      CP_CHECK(rng != nullptr);
      chosen_pos = static_cast<int>(rng->NextUint64(dirty_.size()));
    }
    const int chosen = dirty_[static_cast<size_t>(chosen_pos)];
    // Swap-and-pop: selection re-scores every remaining example each step,
    // so dirty_'s order is irrelevant (the greedy tie-break is by example
    // index, not position).
    dirty_[static_cast<size_t>(chosen_pos)] = dirty_.back();
    dirty_.pop_back();
    CleanExample(chosen);
    ++step;
    LogStep(&result, step, chosen);
  }
  if (!result.all_val_certain &&
      num_val_certain_ == static_cast<int>(task_->val_x.size())) {
    result.all_val_certain = true;
  }
  result.examples_cleaned = step;
  result.final_test_accuracy =
      options_.track_test_accuracy
          ? result.steps.back().test_accuracy
          : CurrentTestAccuracy();
  return result;
}

CleaningRunResult CleaningSession::RunCpClean() {
  return RunLoop(/*greedy=*/true, /*rng=*/nullptr);
}

CleaningRunResult CleaningSession::RunRandomClean(Rng* rng) {
  return RunLoop(/*greedy=*/false, rng);
}

}  // namespace cpclean
