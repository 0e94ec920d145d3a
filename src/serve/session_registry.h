#ifndef CPCLEAN_SERVE_SESSION_REGISTRY_H_
#define CPCLEAN_SERVE_SESSION_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cleaning/cleaning_task.h"
#include "cleaning/cp_clean.h"
#include "common/result.h"
#include "knn/kernel.h"
#include "serve/engine_pool.h"
#include "serve/json.h"
#include "serve/result_cache.h"

namespace cpclean {

/// Per-session serving configuration.
struct ServeSessionOptions {
  int k = 3;
  KernelKind kernel = KernelKind::kNegativeEuclidean;
  double gamma = 1.0;  // RBF only
  /// 0 = the process-global shared pool (the serving default: N concurrent
  /// sessions share cores); positive = a private pool for this session.
  int num_threads = 0;
  /// Max resident entries in the per-session result cache (0 disables).
  size_t cache_capacity = 1024;
  /// FastSelectionScores streaming bound (see CpCleanOptions).
  size_t max_contrib_bytes = size_t{2} << 20;
  /// Non-empty: back the session's working candidate slab with an unlinked
  /// mmap scratch file under this directory (the server's `--storage-mode`
  /// resolution; not a per-request knob, so not parsed from specs).
  std::string mmap_scratch_dir;
  /// Streaming window for file-backed candidate scans.
  size_t stream_window_bytes = size_t{1} << 20;
};

/// Maps the wire kernel names ("neg_euclidean", "rbf", "linear", "cosine")
/// to KernelKind; InvalidArgument for anything else.
Result<KernelKind> KernelKindFromName(const std::string& name);

/// Resolves a session's options from a `create_session` request (or a
/// persisted spec — the same resolution runs on rehydration, so a restored
/// session always carries the options it was created with).
Result<ServeSessionOptions> ServeSessionOptionsFromRequest(
    const JsonValue& req, size_t default_cache_capacity);

/// Order-sensitive FNV fingerprint over everything in a CleaningTask that
/// determines served answers but is NOT covered by the snapshot's working
/// dataset: the encoded validation/test sets, their labels, and the
/// oracle's true-candidate answers. Stored in session snapshots and
/// re-checked on rehydration, so a CSV edited on disk between save and
/// load fails loudly instead of silently shifting q2/certify bits.
uint64_t TaskFingerprint(const CleaningTask& task);

/// One named serving session: a CleaningTask (owned), its kernel, a
/// CleaningSession holding the current cleaning state, a version-stamped
/// `EnginePool` of FastQ2 engines for concurrent Q2 readers, and an
/// internally-locked LRU result cache invalidated by the dataset's
/// mutation version.
///
/// Operations are classified read vs write over the working dataset and
/// synchronized by a `std::shared_mutex`:
///
///   read  (shared lock, run concurrently):  q2, predict, certify, stats,
///                                           snapshot serialization
///   write (exclusive lock, serialize):      clean_step, clean_run
///
/// CP queries are pure reads of the working incomplete dataset, so N
/// concurrent readers each check out a private engine from the pool and
/// proceed in parallel; a cleaning step waits for in-flight readers, then
/// mutates, bumps the dataset version (retiring every cached answer and
/// engine binding), and lets readers back in. Served answers stay
/// bit-identical to direct library calls at the same dataset version.
class ServeSession {
 public:
  /// Validates options, instantiates the kernel and the cleaning session,
  /// and primes the validation-certainty flags (so `stats` stays a pure
  /// read). `spec` is the parameter object that recreates the session
  /// (`create_session` request minus transport fields); the session store
  /// persists it beside the cleaning state. The store's rehydration path
  /// passes `prime_certainty = false`: `RestoreCleaning` re-establishes
  /// freshness itself, so priming here would run the (parallel, full
  /// validation sweep) Q1 pass twice per load.
  static Result<std::shared_ptr<ServeSession>> Make(
      std::string name, CleaningTask task, const ServeSessionOptions& options,
      JsonValue spec = JsonValue(), bool prime_certainty = true);

  const std::string& name() const { return name_; }
  const CleaningTask& task() const { return task_; }
  const ServeSessionOptions& options() const { return options_; }
  const JsonValue& spec() const { return spec_; }

  /// Wall-clock time (unix ms) of the last counted request — creation time
  /// until one arrives. `stats` reads but does not bump it, so monitoring
  /// never keeps an idle session resident.
  int64_t last_request_unix_ms() const {
    return last_request_ms_.load(std::memory_order_relaxed);
  }
  /// Process-wide monotone sequence of the last counted request; the
  /// eviction policy's LRU order (wall-clock ms ties under bursts).
  uint64_t last_request_seq() const {
    return last_request_seq_.load(std::memory_order_relaxed);
  }

  /// Monotone count of completed mutations (clean_step/clean_run that
  /// cleaned at least one tuple). `SerializeSnapshot` reports the count
  /// its snapshot captured; comparing the two is the eviction sweep's
  /// dirty flag — a mismatch means an acknowledged write postdates the
  /// snapshot and a re-save must run before the session may be dropped.
  uint64_t write_seq() const {
    return write_seq_.load(std::memory_order_relaxed);
  }

  /// Resolves a batched request's points: either explicit feature vectors
  /// or indices into the task's validation set.
  Result<std::vector<double>> ValPoint(int index) const;

  // --- Read operations (shared lock) ---------------------------------------

  /// Greedy per-point cleaning certificate against the *current* working
  /// dataset. Result: {certified, label, cleaned: [ids], version}. Cached.
  Result<JsonValue> Certify(const std::vector<double>& point,
                            int max_cleaned);

  /// Q2 label distribution + entropy for one test point against the
  /// current working dataset: {probs: [...], entropy, version}. Cached;
  /// computed on an engine leased from the session's pool.
  Result<JsonValue> Q2(const std::vector<double>& point);

  /// Q1 checking query: {certain, label, version} (label -1 when worlds
  /// disagree). Cached.
  Result<JsonValue> Predict(const std::vector<double>& point);

  /// Provenance query: the minimal witness set determining the point's
  /// Q1 answer on the current working dataset. Result: {certain, label,
  /// witnesses: [tuple ids], support: [tuple ids], minimal, version} —
  /// restricting the dataset to `witnesses` reproduces (certain, label)
  /// bit-for-bit, and removing any single witness flips or un-certifies
  /// it. Cached and version-stamped like every read.
  Result<JsonValue> Explain(const std::vector<double>& point);

  /// `Explain` plus the cleaning-decision audit trail: which of the
  /// session's cleaning steps touched a witness tuple, with each step's
  /// post-fix version and the validation points it newly certified.
  /// Result: {certified, label, witnesses, minimal, trail: [{step, tuple,
  /// version, newly_certain}], version}.
  Result<JsonValue> WhyCertified(const std::vector<double>& point);

  /// Session snapshot: sizes, cleaning progress, the full resolved
  /// options, last-request timestamp, cache + engine-pool counters.
  JsonValue Stats();

  /// Serializes the session as an incomplete-dataset snapshot (working
  /// dataset + version + "spec", "cleaning", "audit" and "task" sections)
  /// for the session store. `write_seq_out` receives the `write_seq()`
  /// the snapshot captured — coherent with the serialized bits because
  /// writes take the exclusive lock, so no mutation can interleave — and
  /// `version_out` the working dataset's `version()` (the cleaning log's
  /// sequence anchor).
  std::string SerializeSnapshot(uint64_t* write_seq_out,
                                uint64_t* version_out);

  /// Everything the session mutated since a durable version — the
  /// O(delta) alternative to SerializeSnapshot.
  struct SnapshotDelta {
    /// False when the working journal cannot reconstruct the gap (the
    /// caller must fall back to a full snapshot).
    bool available = false;
    /// Mutations with seq > since_version, in order (empty = durably
    /// current already).
    std::vector<MutationRecord> records;
    /// Working dataset version after the last record.
    uint64_t version = 0;
    /// write_seq() captured coherently with the records.
    uint64_t write_seq = 0;
  };

  /// Captures the mutation delta since `since_version` (shared lock).
  SnapshotDelta SerializeDelta(uint64_t since_version);

  // --- Write operations (exclusive lock) -----------------------------------

  /// Advances up to `steps` greedy CPClean steps. Result: {cleaned: [ids],
  /// frac_val_certain, dirty_remaining, version}. Mutates the dataset, so
  /// the version bump retires every cached query answer.
  Result<JsonValue> CleanStep(int steps);

  /// Runs greedy cleaning until every validation point is CP'ed or the
  /// budget (-1 = unbounded) is exhausted.
  Result<JsonValue> CleanRun(int budget);

  /// Replays a persisted cleaning snapshot (order + stored audit prefix;
  /// per-step attribution for any uncovered suffix is recomputed) into the
  /// (freshly created) session, then verifies the rebuilt working dataset
  /// is bit-identical to `expected` (the dataset stored in the snapshot
  /// file) — a changed CSV on disk or a drifted generator fails loudly
  /// instead of serving subtly different answers.
  Status RestoreCleaning(const CleaningSnapshot& snapshot,
                         const IncompleteDataset& expected);

  // --- Eviction handshake (exclusive lock) ----------------------------------

  /// The eviction sweep's commit point, called BEFORE the registry drop
  /// (the ordering `Unretire` rollback correctness depends on — retiring
  /// after the drop would strand a failed re-save on an unreachable
  /// instance): takes the exclusive lock (draining in-flight writers),
  /// marks the session retired — every later write op answers
  /// Unavailable("evicted; retry") instead of mutating an instance about
  /// to be dropped — and returns whether `write_seq()` advanced past
  /// `since_write_seq`, i.e. whether a write was acknowledged after the
  /// sweep prepared its save, which must then be re-prepared. Once retired
  /// no writer can mutate the session, so the sweep re-prepares outside
  /// the exclusive lock. Together with the dirty check this closes the
  /// save→drop window: an acknowledged write is either in the first save,
  /// in the re-save, or was never acknowledged.
  bool Retire(uint64_t since_write_seq);

  /// Rolls back `Retire` when the re-save could not be written (the sweep
  /// re-publishes the session instead of dropping it).
  void Unretire();

 private:
  ServeSession(std::string name, CleaningTask task,
               const ServeSessionOptions& options, JsonValue spec);

  /// Stamps this request into the LRU bookkeeping.
  void Touch();

  /// Cache-through helper: returns the cached value for `key` at
  /// `version` or computes, inserts, and returns it. Runs under the
  /// caller's (shared) lock; concurrent same-key misses recompute the
  /// same bits.
  template <typename Fn>
  Result<JsonValue> Cached(const std::string& key, uint64_t version,
                           Fn compute);

  const std::string name_;
  CleaningTask task_;
  ServeSessionOptions options_;
  JsonValue spec_;
  std::unique_ptr<SimilarityKernel> kernel_;
  std::unique_ptr<CleaningSession> cleaner_;
  std::unique_ptr<EnginePool> engines_;
  ResultCache cache_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<int64_t> last_request_ms_{0};
  std::atomic<uint64_t> last_request_seq_{0};
  std::atomic<uint64_t> write_seq_{0};
  /// Set (under the exclusive lock) once the eviction sweep has committed
  /// to dropping this instance; write ops refuse from then on.
  bool retired_ = false;
  std::shared_mutex mu_;
};

/// The server's directory of live sessions. Thread-safe; sessions are
/// handed out as shared_ptr so an in-flight request survives a concurrent
/// drop or eviction. Lookup is hash-based (an unordered_map — the
/// directory is on every request's path); `Names()` stays sorted for
/// stable protocol responses.
class SessionRegistry {
 public:
  /// Publishes a built session (`ServeSession::Make` output — the
  /// creation and rehydration paths alike; the server holds its lifecycle
  /// mutex around publication). AlreadyExists if the name is taken.
  Status Insert(std::shared_ptr<ServeSession> session);

  /// NotFound when no such session.
  Result<std::shared_ptr<ServeSession>> Get(const std::string& name) const;

  Status Drop(const std::string& name);

  /// Session names, sorted.
  std::vector<std::string> Names() const;

  /// Every live session (unspecified order) — the eviction sweep's input.
  std::vector<std::shared_ptr<ServeSession>> All() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ServeSession>> sessions_;
};

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_SESSION_REGISTRY_H_
