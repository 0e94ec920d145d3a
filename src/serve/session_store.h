#ifndef CPCLEAN_SERVE_SESSION_STORE_H_
#define CPCLEAN_SERVE_SESSION_STORE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cleaning/cleaning_task.h"
#include "common/result.h"
#include "serve/json.h"
#include "serve/session_registry.h"

namespace cpclean {

/// Builds a CleaningTask from a `create_session` parameter object —
/// `source` = "paper" | "synthetic" (deterministic seeded generators) or
/// "csv" (inline text or file paths). The same function serves the
/// create_session op and snapshot rehydration, so a restored session's
/// task is rebuilt by exactly the code that built the original.
Result<CleaningTask> BuildTaskFromSpec(const JsonValue& spec);

struct SessionStoreOptions {
  /// Directory session snapshots are saved to / loaded from. Empty
  /// disables persistence (and with it eviction-to-disk and rehydration).
  std::string data_dir;
  /// Max resident sessions before the eviction sweep saves + drops the
  /// least-recently-used ones. 0 = unlimited.
  size_t max_sessions = 0;
  /// Passed through to option resolution on rehydration (a spec without
  /// an explicit cache_capacity gets the server default, same as at
  /// creation).
  size_t default_cache_capacity = 1024;
  /// Degraded-mode probe backoff: after a snapshot write fails, the store
  /// fast-fails further writes and re-probes the disk after this long,
  /// doubling (up to the max) on every failed probe until a write heals.
  int degraded_backoff_initial_ms = 100;
  int degraded_backoff_max_ms = 5000;
  /// Compaction threshold for the per-session cleaning log: a save whose
  /// append would grow `<name>.cplog` past this many bytes writes a fresh
  /// full base snapshot instead (and removes the log).
  size_t log_compact_bytes = size_t{1} << 20;
};

/// Snapshot persistence and lifecycle policy for serving sessions: the
/// piece that turns "sessions live forever in RAM" into
/// live → evicted (saved to disk, dropped from the registry) →
/// rehydrated (rebuilt from spec + replayed cleaning order on next
/// access).
///
/// Durable state per session is a **base snapshot plus an append-only
/// cleaning log**:
///
///   - `<data-dir>/<escaped-name>.cpsession` — the base, in the v3
///     incomplete-dataset format: the *working* candidate space (for
///     bit-identity verification) and its dataset version, plus a "spec"
///     section (the create_session parameter JSON that rebuilds the
///     task), a "cleaning" section (`cleaned <n> <ids...>`, the replay
///     order), an "audit" section (the per-step cleaning audit trail),
///     and a "task" section (`fingerprint <hex>`, hashing the
///     validation/test/oracle data the working dataset does not cover).
///   - `<data-dir>/<escaped-name>.cplog` — checksummed mutation records
///     appended since the base was written (see cleaning_log.h).
///
/// A save is a delta: only the mutations since the last durable version
/// are fsync-appended to the log — O(changes), independent of dataset
/// size. The durable baseline a delta extends lives on the session
/// instance itself: `Make` starts without one and `Load` returns the
/// one it replayed. When the log would outgrow `log_compact_bytes` (or
/// the session has no baseline), the save writes a fresh full base
/// atomically and durably, then drops the log (compaction). Every save
/// holds the session's shared lock from serialization to commit, so no
/// write is acknowledged between what a save captures and what it makes
/// durable; readers keep running, writers wait. Rehydration
/// loads the base, replays the log (tolerating a torn final record —
/// the one append that was never acknowledged), rebuilds the task from
/// the spec, replays the cleaning order, and fails loudly if either the
/// rebuilt working dataset is not bit-identical to the stored+replayed
/// one or the task fingerprint drifted (a CSV edited on disk since the
/// save).
class SessionStore {
 public:
  explicit SessionStore(SessionStoreOptions options);

  bool enabled() const { return !options_.data_dir.empty(); }
  size_t max_sessions() const { return options_.max_sessions; }
  const std::string& data_dir() const { return options_.data_dir; }

  /// The snapshot path for `name` (valid whether or not the file exists).
  std::string PathFor(const std::string& name) const;

  /// The cleaning-log path for `name` (exists only between a delta save
  /// and the next compaction).
  std::string LogPathFor(const std::string& name) const;

  /// InvalidArgument when `session` cannot be persisted (created without
  /// a spec — nothing could rebuild its task on load). The single source
  /// of the savability rule, shared by `Save` and the eviction sweep.
  static Status ValidateSavable(const ServeSession& session);

  /// Persists `session`: a log append of the mutations since the last
  /// durable version when the session carries a baseline (O(delta)),
  /// else a full atomic base-snapshot write; a no-op when nothing changed.
  /// Unavailable when persistence is disabled; see `ValidateSavable` for
  /// the spec requirement. Saves of all sessions serialize on an internal
  /// order mutex so two delta appends can never interleave on one log.
  Status Save(ServeSession& session);

  /// `Save` for a session published in `registry` (the save_session op):
  /// serialization runs outside `lifecycle_mu`, the disk commit under it
  /// and only while `registry` still holds this exact instance — a drop
  /// that landed first deleted the name (writing it back would resurrect
  /// the session), and an eviction that landed first already saved the
  /// same state. Returns false, having written nothing, in that case. The
  /// caller must NOT hold `lifecycle_mu`.
  Result<bool> SavePublished(SessionRegistry& registry,
                             std::mutex& lifecycle_mu, ServeSession& session);

  /// Loads `name`'s base snapshot, replays its cleaning log (truncating
  /// a torn tail), and rebuilds the session (unpublished — the caller
  /// inserts it into the registry), carrying the durable baseline it
  /// replayed. NotFound when no base exists.
  Result<std::shared_ptr<ServeSession>> Load(const std::string& name);

  /// Deletes `name`'s base snapshot and cleaning log. NotFound when no
  /// base exists.
  Status Delete(const std::string& name);

  /// True when a base snapshot file exists for `name`.
  bool Saved(const std::string& name) const;

  /// Names of every saved session, sorted.
  std::vector<std::string> SavedNames() const;

  /// The eviction sweep: while `registry` holds more than `max_sessions`
  /// sessions, saves the least-recently-used one (by last-request
  /// sequence) — an O(delta) log append when it carries a durable
  /// baseline — then, still under the shared lock the save held, marks
  /// it evicted and drops it. A write that waited on that lock (or
  /// reaches the detached instance later) answers Unavailable, so an
  /// acknowledged write is never lost to eviction. Returns the evicted
  /// names (empty when under the limit or max_sessions == 0). Fails
  /// without evicting when persistence is disabled — callers gate
  /// admission instead of silently discarding state.
  ///
  /// The caller must NOT hold `lifecycle_mu`: serialization runs outside
  /// it, and only the commit (disk write + registry drop, re-validated
  /// against a racing drop) takes it. A sweep holds the save order mutex
  /// for its whole loop, so concurrent sweeps and saves serialize behind
  /// it.
  Result<std::vector<std::string>> EnforceCapacity(SessionRegistry& registry,
                                                   std::mutex& lifecycle_mu);

  /// Degraded read-only mode. The store enters it when a snapshot, log
  /// append, or probe write fails with an IO error: further writes
  /// fast-fail with IoError until an exponential-backoff window elapses,
  /// then the next write — or this accessor — probes the disk with a
  /// small atomic write. Reads (Load/Saved/SavedNames) never consult it:
  /// a server with an unwritable data dir keeps serving queries, it just
  /// cannot save. `CheckDegraded` probes when the backoff window has
  /// elapsed, so a healed disk clears on the next stats poll, not only on
  /// the next save.
  bool CheckDegraded();

 private:
  /// A prepared save: either a full base snapshot text or the encoded
  /// log records covering (durable_version, current version].
  struct PendingSave {
    bool noop = false;   // nothing changed since the durable version
    bool delta = false;  // append `log_lines` instead of writing `full_text`
    std::string full_text;
    std::vector<std::string> log_lines;
    size_t log_bytes_add = 0;
    uint64_t version = 0;  // dataset version this save makes durable
  };

  /// Unavailable when persistence is disabled.
  Status RequireEnabled() const;

  /// True when `registry` still holds this exact `session` instance: the
  /// commit-time re-check of every save of a published session, made
  /// under the caller's lifecycle mutex.
  static bool Publishes(const SessionRegistry& registry,
                        const ServeSession& session);

  /// Serializes the cheapest sufficient save for `session` (no disk IO).
  /// Caller holds `save_order_mu_` and the session's shared lock.
  Result<PendingSave> PrepareSave(const ServeSession& session);

  /// Commits a prepared save to disk and updates the session's durable
  /// baseline. Caller holds `save_order_mu_` and the session's shared
  /// lock, the same hold `PrepareSave` ran under.
  Status CommitSave(ServeSession& session, const PendingSave& pending);

  /// Temp-write + fsync + rename + directory fsync, the single
  /// full-snapshot write path (bases and degraded-mode probes alike): on
  /// success the new bytes are durable under `path`. Carries the
  /// fault-injection sites store.open / store.write / store.flush (the
  /// fsync) / store.rename and feeds the degraded-mode state machine: any
  /// IO failure degrades the store, any success heals it. Fast-fails
  /// without touching the disk while degraded and inside the backoff
  /// window.
  Status WriteFileAtomic(const std::string& path, const std::string& text);

  /// Marks the store degraded (extending the backoff) or healed.
  void NoteWriteResult(bool ok);

  /// True while degraded and inside the backoff window (the log-append
  /// path's equivalent of WriteFileAtomic's fast-fail).
  bool DegradedFastFail(Status* status);

  SessionStoreOptions options_;
  /// Serializes prepare→commit of every save, and whole eviction sweeps:
  /// two concurrent delta saves of one session would both diff against
  /// the same durable version and append duplicate records, and two
  /// sweeps would race to evict the same victim. It also guards every
  /// session's durable baseline. Ordering: save_order_mu_ → session lock
  /// → lifecycle_mu.
  std::mutex save_order_mu_;
  /// Degraded-mode state (see CheckDegraded).
  std::mutex degraded_mu_;
  bool degraded_ = false;
  std::chrono::steady_clock::time_point next_probe_{};
  int backoff_ms_ = 0;
};

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_SESSION_STORE_H_
