#ifndef CPCLEAN_CLEANING_CP_CLEAN_H_
#define CPCLEAN_CLEANING_CP_CLEAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cleaning/cleaning_task.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "knn/kernel.h"

namespace cpclean {

/// One human-cleaning step and the state after it.
struct CleaningStepLog {
  int step = 0;              // number of examples cleaned so far
  int cleaned_example = -1;  // train row cleaned at this step (-1: baseline)
  double frac_val_certain = 0.0;  // fraction of validation points CP'ed
  double test_accuracy = 0.0;     // KNN on the current best-guess world
  double mean_val_entropy = 0.0;  // mean Q2 prediction entropy over val
};

/// Full trace of a cleaning run.
struct CleaningRunResult {
  std::vector<CleaningStepLog> steps;  // steps[0] is the pre-cleaning state
  int examples_cleaned = 0;
  bool all_val_certain = false;
  double final_test_accuracy = 0.0;
};

struct CpCleanOptions {
  int k = 3;
  /// Cleaning budget: stop after this many examples (-1 = no budget).
  int max_cleaned = -1;
  /// Stop as soon as every validation example is CP'ed (Algorithm 3 line 3).
  bool stop_when_all_certain = true;
  /// Evaluate test accuracy at every step (the Figure 9 blue series);
  /// disable to speed up pure-cleaning-effort measurements.
  bool track_test_accuracy = true;
  /// Track mean validation entropy at every step (costs one Q2 sweep).
  bool track_entropy = false;
  /// Use the FastQ2 engine (precomputed scans, early termination,
  /// never-in-top-K pruning) for the greedy selection. The slow path calls
  /// the reference SS-DC engine per candidate and exists for validation.
  bool use_fast_selection = true;
  /// Mass tolerance for FastQ2's early termination.
  double fast_epsilon = 1e-9;
  /// Worker threads for the independent per-validation-point loops
  /// (selection scores, certainty refresh, entropy tracking). 0 = the
  /// process-global shared pool (`GlobalThreadPool()`, hardware concurrency
  /// by default) so concurrent sessions share cores; any positive value
  /// gives this session a private pool of exactly that size (1 = fully
  /// serial, no worker threads, the pre-pool code path). Every value
  /// produces bit-identical scores, cleaning order, and step logs: workers
  /// fill disjoint per-point slots and the floating-point reductions replay
  /// in validation order on one thread.
  int num_threads = 0;
  /// Upper bound in bytes on the greedy selection rows kept across steps
  /// (one double plus one prune flag per active-validation-point x
  /// dirty-example pair). A step recomputes only the kept rows the last
  /// cleaned example could reach and reuses the rest. Rows past the bound,
  /// and every row of FastSelectionScores (which keeps none), are
  /// recomputed each time, streamed in ordered blocks that fit what is left
  /// of the bound (at least one row per worker). Every reduction is a left
  /// fold in ascending validation order whatever rows are kept or streamed,
  /// so every value — like every thread count — yields bit-identical
  /// scores.
  size_t max_contrib_bytes = size_t{2} << 20;
};

/// What a CleaningSession keeps beside its working dataset. Configured once
/// by the serving layer and re-applied automatically after every internal
/// Reset (Run* entry points, Restore), which rebuilds the working copy from
/// the task.
struct WorkingStorageOptions {
  /// Record every working-dataset mutation in its journal, enabling
  /// O(delta) persistence through the append-only cleaning log.
  bool journal = false;
};

/// One cleaning decision and its certification effect: the 1-based step
/// index, the example cleaned, the working-dataset version right after the
/// fix, and the validation points that became certainly predicted as a
/// result. The trail of these records is the provenance the serving
/// layer's `why_certified` op serves.
struct CleaningAuditRecord {
  int step = 0;
  int example = -1;
  uint64_t version = 0;
  std::vector<int> newly_certain;  // val indices, ascending
};

/// Everything that distinguishes a mid-cleaning session from a freshly
/// constructed one on the same task: the examples cleaned so far, in
/// cleaning order. Replaying the order against a fresh session restores
/// bit-identical state — the working dataset (same FixExample sequence),
/// the best-guess world, the dirty set, and the validation-certainty flags
/// (certainty is monotone under cleaning, so a from-scratch refresh marks
/// exactly the points the interrupted run had marked). Serialized by the
/// serving layer's session store next to the working candidate space.
struct CleaningSnapshot {
  /// CleanExample replay sequence; excludes rows born clean in the task.
  std::vector<int> cleaned_order;
  /// Audit records for a *prefix* of `cleaned_order` (possibly all of it,
  /// possibly empty for pre-provenance snapshots). Restore trusts the
  /// stored prefix and recomputes per-step attribution for the rest.
  std::vector<CleaningAuditRecord> audit;
};

/// The k that CPClean accepts over `num_training_rows` training examples:
/// InvalidArgument unless 1 <= k <= FastQ2::kMaxK and k <= the rows. Check
/// it before any KNN runs on untrusted k: the KNN and FastQ2 constructors
/// CP_CHECK-abort on the same conditions.
Status ValidateCleaningK(int k, int num_training_rows);

/// Driver for human-in-the-loop cleaning over a CleaningTask. Owns a
/// working copy of the incomplete dataset and the current "best guess"
/// world (cleaned rows take their oracle value, still-dirty rows their
/// mean/mode-imputed default), which is what mid-run test accuracy is
/// measured on (DESIGN.md §4.6).
class CleaningSession {
 public:
  /// `task` and `kernel` are borrowed and must outlive the session.
  CleaningSession(const CleaningTask* task, const SimilarityKernel* kernel,
                  const CpCleanOptions& options);

  /// Status-returning construction for server paths: validates the inputs
  /// (the constructor CP_CHECK-aborts on them instead) and returns
  /// InvalidArgument for a null task/kernel, k < 1, k beyond the FastQ2
  /// engine cap, or k larger than the training set.
  static Result<std::unique_ptr<CleaningSession>> Create(
      const CleaningTask* task, const SimilarityKernel* kernel,
      const CpCleanOptions& options);

  /// CPClean (paper Algorithm 3): sequential information maximization —
  /// each step cleans the example minimizing the expected conditional
  /// entropy of the validation predictions under a uniform prior over
  /// which candidate is the truth (Equation 4).
  CleaningRunResult RunCpClean();

  /// Baseline: cleans uniformly random dirty examples (paper §5.2,
  /// "RandomClean").
  CleaningRunResult RunRandomClean(Rng* rng);

  /// Expected-entropy scores for every example in `dirty`, via FastQ2,
  /// parallelized over validation points, computed from scratch (the greedy
  /// steps' cached rows are neither read nor written). Public for the
  /// determinism tests and benchmarks; RunCpClean is the intended entry
  /// point.
  std::vector<double> FastSelectionScores(const std::vector<int>& dirty) {
    return SelectionScores(dirty, /*use_cache=*/false);
  }

  // --- Incremental stepping (the serving layer's interface) ---------------
  //
  // `RunCpClean`/`RunRandomClean` reset the session and run a whole budgeted
  // loop; a server instead advances one greedy step at a time between
  // queries against the current state. Interleaving StepGreedy with the
  // run-loop API is fine — the Run* entry points always Reset first.

  /// Performs one greedy CPClean step (select argmin expected entropy,
  /// clean it, refresh validation certainty) against the session's current
  /// state. Returns the cleaned example index, or -1 when there is nothing
  /// left to clean or (with `stop_when_all_certain`) every validation point
  /// is already CP'ed. A sequence of StepGreedy calls cleans exactly the
  /// same examples in the same order as RunCpClean.
  int StepGreedy();

  /// The session's current incomplete dataset: the task's candidate space
  /// with every cleaned example collapsed to its true candidate. CP queries
  /// served against the session evaluate on this view.
  const IncompleteDataset& working() const { return working_; }

  /// Fraction of validation points currently certainly predicted
  /// (refreshing lazily after a cleaning step).
  double FracValCertain();

  /// The fraction at the last certainty refresh, without refreshing — the
  /// non-mutating view concurrent readers (the serving layer's shared-lock
  /// `stats` op) use. Fresh after `FracValCertain`, `Restore`, and every
  /// `StepGreedy`; stale (never refreshed) right after construction/Reset
  /// until one of those runs.
  double LastFracValCertain() const {
    if (task_->val_x.empty()) return 1.0;
    return static_cast<double>(num_val_certain_) /
           static_cast<double>(task_->val_x.size());
  }

  /// True when the certainty flags reflect the current working dataset.
  bool val_certainty_fresh() const { return val_certainty_fresh_; }

  /// Per-step cleaning-decision audit trail since the last Reset: one
  /// record per explicit cleaning step (StepGreedy, the Run* loops, and
  /// Restore replay), in step order. Rows born clean and the baseline
  /// certainty refresh produce no records.
  const std::vector<CleaningAuditRecord>& audit() const { return audit_; }

  // --- Snapshot / restore (session persistence) ---------------------------

  /// Captures the cleaning state for persistence (see CleaningSnapshot).
  CleaningSnapshot Snapshot() const {
    return CleaningSnapshot{cleaned_order_, audit_};
  }

  /// Resets to the task's initial state, then replays `snapshot`'s cleaning
  /// order and refreshes validation certainty. Afterwards every observable
  /// — working dataset bits, dirty set, certainty flags, and the example
  /// sequence future StepGreedy calls clean — is identical to the session
  /// the snapshot was taken from. InvalidArgument on out-of-range,
  /// born-clean, or repeated example ids.
  Status Restore(const CleaningSnapshot& snapshot);

  /// Applies `storage` to the working dataset now and after every future
  /// Reset.
  void ConfigureWorkingStorage(const WorkingStorageOptions& storage);

  /// Examples not yet cleaned.
  int NumDirtyRemaining() const { return static_cast<int>(dirty_.size()); }

  /// Cleaning steps taken since the last Reset (excludes rows that were
  /// already clean in the task).
  int NumCleaned() const { return num_cleaned_; }

  const CpCleanOptions& options() const { return options_; }

 private:
  friend class CleaningSessionTestPeer;

  /// Reset clears the selection cache (Restore and every Run* reset first):
  /// it rewinds the dataset version, so a stale stamp could match again.
  void Reset();
  /// Position in `dirty_` of the greedy choice (fast or reference scoring
  /// per `use_fast_selection`, ties toward the smallest example index).
  int SelectGreedyPos();
  /// Marks newly-certain validation points; returns the certain fraction.
  /// (CP'ed points stay CP'ed: cleaning only removes possible worlds.)
  /// Side effect: `last_newly_certain_` holds the points marked this call.
  double RefreshValCertainty();
  /// Appends an audit record for the step that just cleaned `example`
  /// (call right after its RefreshValCertainty).
  void RecordAudit(int example);
  double CurrentTestAccuracy() const;
  double MeanValEntropy() const;
  /// Expected mean validation entropy after cleaning example `i`
  /// (Equation 4), averaging over its candidates as possible truths.
  /// Reference implementation (SS-DC per candidate); the fast path above
  /// computes the same scores batched.
  double ExpectedEntropyAfterCleaning(int i);
  /// Expected-entropy scores for `dirty`, one row per active validation
  /// point summed in ascending validation order. With `use_cache`, `dirty`
  /// is dirty_ and rows persist in cache_ across greedy steps: a cached row
  /// is recomputed only when the example cleaned since the last selection
  /// passed that point's top-K prune.
  std::vector<double> SelectionScores(const std::vector<int>& dirty,
                                      bool use_cache);
  void CleanExample(int i);
  CleaningRunResult RunLoop(bool greedy, Rng* rng);
  void LogStep(CleaningRunResult* result, int step, int cleaned_example);

  const CleaningTask* task_;
  const SimilarityKernel* kernel_;
  CpCleanOptions options_;
  WorkingStorageOptions storage_;

  // The pool the per-validation-point loops run on: the process-global
  // shared pool when options_.num_threads == 0, else a privately owned one.
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  IncompleteDataset working_;
  std::vector<std::vector<double>> world_;  // current best-guess features
  std::vector<uint8_t> cleaned_;
  std::vector<int> dirty_;  // not-yet-cleaned examples (order irrelevant)
  std::vector<int> cleaned_order_;  // CleanExample sequence since Reset
  std::vector<CleaningAuditRecord> audit_;  // one record per cleaning step
  std::vector<int> last_newly_certain_;     // RefreshValCertainty scratch
  int num_cleaned_ = 0;
  std::vector<uint8_t> val_certain_;
  int num_val_certain_ = 0;
  // False after a mutation until RefreshValCertainty runs again.
  bool val_certainty_fresh_ = false;

  // Greedy selection rows kept across steps, keyed by (validation point,
  // tuple id). Allocated by the first greedy selection after a Reset.
  // Cleaning example c leaves a point's row bit-identical when c could
  // never enter its top-K (MaxSimilarity(c) < TopKFloor()): c adds an exact
  // zero to every support, and the floor and every prune stay put. The rows
  // are reusable while the working dataset has moved by at most one
  // CleanExample since the stamp.
  struct SelectionCache {
    bool stamped = false;
    uint64_t version = 0;  // working_.version() at the stamp
    size_t cleaned = 0;    // cleaned_order_.size() at the stamp
    std::vector<int> column;  // tuple id -> column, -1 if clean at allocation
    size_t width = 0;         // columns per row
    std::vector<int> slot;    // validation point -> row slot, -1 if uncached
    std::vector<double> rows;     // slot-major, `width` entries per slot
    std::vector<uint8_t> pruned;  // the tuple fell under the point's floor
  };
  SelectionCache cache_;
};

}  // namespace cpclean

#endif  // CPCLEAN_CLEANING_CP_CLEAN_H_
