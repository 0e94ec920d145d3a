#ifndef CPCLEAN_SERVE_SESSION_REGISTRY_H_
#define CPCLEAN_SERVE_SESSION_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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
  /// Max resident entries in the per-session result cache (0 disables).
  size_t cache_capacity = 1024;
  /// Bound on the greedy selection rows kept across clean steps (see
  /// CpCleanOptions).
  size_t max_contrib_bytes = size_t{2} << 20;
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
/// re-checked on rehydration, so a spec that no longer rebuilds the saved
/// task fails loudly instead of silently shifting q2/certify bits.
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
///                                           a session-store save
///   write (exclusive lock, serialize):      clean_step, clean_run
///
/// CP queries are pure reads of the working incomplete dataset, so N
/// concurrent readers each check out a private engine from the pool and
/// proceed in parallel; a cleaning step waits for in-flight readers, then
/// mutates, bumps the dataset version (retiring every cached answer and
/// engine binding), and lets readers back in. Served answers stay
/// bit-identical to direct library calls at the same dataset version.
///
/// A session is live or evicted, and moves only from live to evicted:
/// the session store's eviction sweep sets the bit while it still holds
/// the shared lock its save committed under, so every write the saved
/// state lacks waits for that lock and then answers
/// Unavailable("evicted; retry") instead of mutating a dropped instance.
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

 private:
  /// The store reads the session under `mu_` (shared) for a save, keeps
  /// the durable baseline, and sets the evicted bit.
  friend class SessionStore;

  /// What is on disk for this session: the base snapshot's dataset
  /// version, the version base + log together reach, and the log's
  /// durable byte length.
  struct DurableBaseline {
    uint64_t base_version = 0;
    uint64_t durable_version = 0;
    size_t log_bytes = 0;
  };

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
  };

  ServeSession(std::string name, CleaningTask task,
               const ServeSessionOptions& options, JsonValue spec);

  /// Stamps this request into the LRU bookkeeping.
  void Touch();

  /// The body every per-point read op shares: shared lock, request
  /// accounting, the dimension check, and a cache lookup keyed by `op`
  /// and `param` at the current dataset version. On a miss
  /// `compute(working)` builds the answer, which gets the `version` it was
  /// computed at appended and is cached. Concurrent same-key misses
  /// recompute the same bits.
  template <typename Fn>
  Result<JsonValue> CachedRead(const char* op, int param,
                               const std::vector<double>& point,
                               Fn compute);

  /// The body of clean_step (`run` false: exactly `limit` >= 1 steps at
  /// most) and clean_run (`run` true: `limit` = budget, -1 unbounded; the
  /// response also reports `steps`), under the exclusive lock.
  Result<JsonValue> Clean(int limit, bool run);

  /// Captures the mutation delta since `since_version`. Caller holds
  /// `mu_` (shared).
  SnapshotDelta SerializeDelta(uint64_t since_version) const;

  /// Serializes the session as an incomplete-dataset snapshot (working
  /// dataset + version + "spec", "cleaning", "audit" and "task" sections);
  /// `version_out` receives the working dataset's `version()` (the
  /// cleaning log's sequence anchor). Caller holds `mu_` (shared).
  std::string SerializeSnapshot(uint64_t* version_out) const;

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
  /// Set once, by the eviction sweep after its save committed; write ops
  /// refuse from then on.
  std::atomic<bool> evicted_{false};
  /// Empty until the first save (`Make`), or what `SessionStore::Load`
  /// replayed. Guarded by the store's save order mutex, not by `mu_`.
  std::optional<DurableBaseline> durable_;
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
