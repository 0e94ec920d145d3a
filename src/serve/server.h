#ifndef CPCLEAN_SERVE_SERVER_H_
#define CPCLEAN_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/json.h"
#include "serve/session_registry.h"
#include "serve/session_store.h"

namespace cpclean {

class EventLoop;
struct OpHandlers;

struct ServerOptions {
  /// Result-cache capacity given to sessions that do not specify their own.
  size_t default_cache_capacity = 1024;
  /// Directory for session snapshots (`save_session`, eviction, lazy
  /// rehydration). Empty disables persistence.
  std::string data_dir;
  /// Max resident sessions; beyond it the least-recently-used session is
  /// saved to `data_dir` and dropped from RAM. 0 = unlimited.
  size_t max_sessions = 0;
  /// Compaction threshold for per-session cleaning logs: a save is an
  /// O(delta) fsync'd append to `<name>.cplog` until the log would exceed
  /// this many bytes, at which point the save writes a fresh full base
  /// snapshot and drops the log.
  size_t log_compact_bytes = size_t{1} << 20;
  /// Max concurrent TCP connections; further accepts receive a structured
  /// Unavailable error and are closed. This guards the fd table only —
  /// idle connections are nearly free under the event loop, so the limit
  /// can sit orders of magnitude above `max_inflight`. Counted over every
  /// TCP server in the process. 0 = unlimited.
  int max_connections = 0;
  /// Threads executing dispatched requests. 0 = hardware concurrency.
  int request_workers = 0;
  /// Request-level admission: dispatched-but-unanswered requests beyond
  /// this bound answer Unavailable immediately instead of queueing. This —
  /// not `max_connections` — is what bounds work in flight. Counted over
  /// every TCP server in the process. 0 = unlimited.
  int max_inflight = 0;
  /// Per-request deadline on the TCP transport: a request unanswered this
  /// long after dispatch returns DeadlineExceeded (with its id) and the
  /// worker's late result is discarded whole. The connection survives.
  /// 0 = no deadline.
  int request_timeout_ms = 0;
  /// TCP connections idle (no bytes either way, nothing pending) this long
  /// are closed. 0 = never.
  int idle_timeout_ms = 0;
  /// Largest accepted request line on the TCP transport; longer ones get a
  /// structured InvalidArgument and the connection closes. 0 = unlimited.
  size_t max_request_bytes = 1 << 20;
  /// Slow-client backpressure (TCP): pause reading a connection once this
  /// many response bytes are queued on it (soft), close it at
  /// `max_output_bytes` (hard). 0 disables either bound.
  size_t output_hwm_bytes = 4 << 20;
  size_t max_output_bytes = 32 << 20;
  /// Loopback HTTP `GET /metrics` listener (Prometheus text exposition) on
  /// this port, served by the same event loop as the main transport
  /// (0 = ephemeral, see `metrics_port()`; -1 disables). TCP only.
  int metrics_port = -1;
  /// TCP requests whose span total exceeds this emit one structured JSON
  /// log line with the full phase breakdown. 0 = disabled.
  int slow_request_ms = 0;
  /// Sink for slow-request log lines (tests capture them here); empty
  /// means stderr.
  std::function<void(const std::string&)> slow_log;
};

/// The CP-query serving layer's request router and transports.
///
/// Protocol: line-delimited JSON, one request object in, one response
/// object out. Requests carry an `op`, an optional `id` (echoed back), an
/// `session` for per-session operations, and op parameters inline:
///
///   {"id":1,"op":"create_session","session":"a","source":"paper",
///    "dataset":"Supreme","train_rows":120,"k":3}
///   {"id":2,"op":"certify","session":"a","val_indices":[0,1,2]}
///   {"id":3,"op":"clean_step","session":"a","steps":2}
///
/// Responses are `{"id":...,"ok":true,"result":{...}}` on success and
/// `{"id":...,"ok":false,"error":{"code":"Not found","message":"..."}}` on
/// failure, where `code` is `StatusCodeToString` of the library Status
/// ("Invalid argument", "Not found", "Out of range", "Parse error",
/// "Already exists", "Unavailable", ...) — every malformed input (bad
/// JSON, unknown op, missing session, malformed CSV) yields a structured
/// error response, never a process abort. Blank lines and `#` comment
/// lines are ignored, so scripted query files can be annotated.
///
/// Ops are rows in the declarative registry (`serve/op_registry.h`):
/// create_session, list_sessions, drop_session, certify, q2, predict,
/// explain, why_certified, clean_step, clean_run, save_session,
/// load_session, stats, metrics, fault_inject, ping, shutdown. The
/// registry row carries each op's classification, coalescability, and
/// handler — routing, lock choice, metrics labels, the capability info
/// served by `list_sessions`, and the README op table are all derived
/// from it. See README "Serving".
///
/// Concurrency: per-session ops are classified read (q2, predict,
/// certify, explain, why_certified, stats — and every save, from
/// serialization to disk commit) vs write (clean_step, clean_run); reads
/// on one session run concurrently on its shared lock, writes serialize.
/// Lifecycle transitions (create/publish, drop, the disk commit of a
/// save, load/rehydration publication, eviction) additionally serialize
/// on a server-wide lifecycle mutex — expensive work (task builds,
/// snapshot loads/serialization) happens outside it. Saves and eviction
/// sweeps order on the store's save mutex. Lock order: store save order →
/// session lock → lifecycle (see SessionStore). Different sessions always
/// proceed concurrently and share the process-global thread pool.
///
/// Lifecycle: with a `data_dir`, sessions move live → evicted (LRU past
/// `max_sessions`, saved to disk) → rehydrated (lazily, on the next
/// request naming them, or explicitly via `load_session`). The eviction
/// sweep holds its victim's shared lock from serialization through the
/// registry drop, and marks the instance evicted before releasing it: a
/// write either landed before the save (and is in it) or waits and then
/// answers Unavailable("evicted; retry") — the retry lands on the
/// rehydrated incarnation, so acknowledged writes survive eviction in
/// every interleaving.
///
/// Transports: `RunStdio` (requests on stdin, responses on stdout) and
/// `ServeTcp` (loopback listener on an epoll event loop: the calling
/// thread is the one poller that holds the connections and frames lines,
/// a bounded pool of `request_workers` threads executes requests, and
/// per-connection ordered response slots keep every connection's
/// responses in request order and byte-identical to a blocking transport.
/// Admission is two-level: `max_connections` guards the fd table at
/// accept time, `max_inflight` bounds dispatched-but-unanswered requests.
/// Both read the process-wide transport gauges (`TransportMetrics` in
/// serve/event_loop.h), which are also the only record of transport
/// events that the global `stats` op reports).
class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Routes one request line to one response line (no trailing newline).
  /// Returns an empty string for blank/comment lines (no response).
  std::string HandleLine(const std::string& line);

  /// Parsed-request entry point (the testing seam under HandleLine).
  JsonValue HandleRequest(const JsonValue& request);

  /// Reads requests from `in` until EOF or a `shutdown` op; writes one
  /// response line per request to `out`, flushing after each.
  void RunStdio(std::istream& in, std::ostream& out);

  /// Listens on 127.0.0.1:`port` (0 = ephemeral; see `port()`) and blocks
  /// until `Stop()`/`RequestStop()` or a `shutdown` request, running the
  /// epoll event loop (the caller becomes its poller). The call returns only
  /// after every connection has drained (graceful) or been dropped
  /// (`Stop`). A `port` or `metrics_port` outside [0, 65535] fails with
  /// InvalidArgument before anything is bound.
  Status ServeTcp(int port);

  /// The bound TCP port once `ServeTcp` is listening; -1 before, -2 once
  /// the listener has failed or terminated.
  int port() const { return bound_port_.load(); }

  /// The bound `/metrics` HTTP port once `ServeTcp` is listening with
  /// `metrics_port >= 0`; -1 otherwise.
  int metrics_port() const { return bound_metrics_port_.load(); }

  /// Graceful wind-down: marks the server stopping and unblocks the
  /// listener. Lines already framed still receive their responses, then
  /// connections close. Async-signal-safe (atomics and a `shutdown(2)`
  /// call only), so it may run from a signal handler.
  void RequestStop();

  /// `RequestStop` plus an immediate drop of every open connection
  /// (pending responses are abandoned). Not signal-safe.
  void Stop();

  bool stopping() const { return stopping_.load(); }

  SessionRegistry& registry() { return registry_; }
  SessionStore& store() { return store_; }

 private:
  /// The registry's handlers (op_registry.cc) are the only external code
  /// allowed at the private op implementations below.
  friend struct OpHandlers;

  Result<JsonValue> Dispatch(const std::string& op, const JsonValue& req);
  Result<JsonValue> CreateSession(const JsonValue& req);
  Result<JsonValue> ListSessions(const JsonValue& req);
  /// Resolves the session and the `points`/`val_indices` selector, then
  /// applies `one` (the op-specific per-point query) to each point.
  Result<JsonValue> BatchQuery(
      const JsonValue& req,
      const std::function<Result<JsonValue>(
          ServeSession&, const std::vector<double>&)>& one);
  Result<JsonValue> DropSession(const JsonValue& req);
  Result<JsonValue> SaveSession(const JsonValue& req);
  Result<JsonValue> LoadSession(const JsonValue& req);
  Result<JsonValue> Stats(const JsonValue& req);
  /// The telemetry snapshot: counters/gauges/histogram quantiles from the
  /// process-wide registry, recent request spans, fault-site fires.
  Result<JsonValue> Metrics(const JsonValue& req);
  /// Test-only fault-rule installer (see common/fault_injection.h);
  /// refused unless CPCLEAN_FAULTS is in the environment or a test armed
  /// the op in-process.
  Result<JsonValue> FaultInject(const JsonValue& req);

  /// Registry lookup with lazy rehydration: a session evicted (or saved by
  /// a previous server process over the same data dir) is loaded from its
  /// snapshot on the next request that names it.
  Result<std::shared_ptr<ServeSession>> FindSession(const std::string& name);

  /// The one rehydrate path (lazy via FindSession, explicit via
  /// load_session): loads `name` outside `lifecycle_mu_`, then under it
  /// returns a live session another request published meanwhile, refuses
  /// a name a racing drop deleted, or publishes the loaded instance; a
  /// publication then runs the capacity sweep.
  Result<std::shared_ptr<ServeSession>> Rehydrate(const std::string& name);

  ServerOptions options_;
  SessionRegistry registry_;
  SessionStore store_;
  /// Serializes session lifecycle *transitions* — create/insert+evict,
  /// drop (snapshot delete + registry drop), a save's disk commit,
  /// rehydration — so no interleaving can, e.g., re-write a snapshot a
  /// concurrent drop just deleted or delete the one an eviction just
  /// wrote. Taken after the store's save order mutex and any session
  /// lock, never before. Per-session query/cleaning ops never take it
  /// (they run under the session's own shared_mutex), and neither does
  /// the live-session fast path of FindSession, so the data plane is
  /// unaffected.
  std::mutex lifecycle_mu_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> bound_port_{-1};
  std::atomic<int> bound_metrics_port_{-1};
  std::atomic<int> listen_fd_{-1};
  /// Construction time, for the `stats` op's uptime_ms.
  const uint64_t start_ns_;

  // The running event loop (while ServeTcp is live): `Stop` hard-stops it
  // through this pointer, and the destructor waits for ServeTcp to sign
  // off before the Server goes away under it.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  EventLoop* loop_ = nullptr;
  bool serving_ = false;
};

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_SERVER_H_
