#ifndef CPCLEAN_SERVE_EVENT_LOOP_H_
#define CPCLEAN_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "serve/json.h"

namespace cpclean {

class Server;
struct ServerOptions;

/// The TCP transport's instruments in the process-wide metrics registry.
/// They are the only record of transport events: the global `stats` op's
/// `connections` object and the `metrics` op both read them, and
/// admission control reads the two gauges. Being process-wide, they sum
/// over every server in the process.
struct TransportMetrics {
  static TransportMetrics& Get();

  MetricGauge& active_connections;
  MetricGauge& inflight;
  MetricGauge& queue_depth;
  MetricGauge& output_backlog_bytes;
  MetricCounter& accepts;
  MetricCounter& requests;
  MetricCounter& coalesce_hits;
  MetricCounter& rejected_connections;
  MetricCounter& rejected_requests;
  MetricCounter& deadline_expired;
  MetricCounter& idle_reaped;
  MetricCounter& oversized_requests;
  MetricCounter& output_overflow_closed;
  MetricCounter& http_scrapes;
  MetricCounter& slow_requests;
  MetricHistogram& request_ns;
  MetricHistogram& queue_wait_ns;
  MetricHistogram& exec_ns;
};

/// The epoll transport behind `Server::ServeTcp`.
///
/// Architecture: the thread calling `Run` is the one poller. It owns the
/// listeners and every connection (non-blocking sockets, per-connection
/// read/write buffers, incremental newline framing). Completed request
/// lines are dispatched to a bounded pool of `request_workers` threads
/// through one shared work queue; responses travel back through
/// per-connection ordered slots, so each connection sees its responses in
/// request order even though different connections' requests execute
/// concurrently.
///
/// Per-connection execution is serial — at most one request of a
/// connection is in flight at a time, exactly like the thread-per-
/// connection transport it replaces — so pipelined requests on one
/// connection observe each other's effects and every response line is
/// byte-identical to the blocking transport's.
///
/// While an identical coalescable request (same request object, ids
/// aside; the op registry's `coalescable` bit, today only `q2`) is still
/// waiting in the work queue, later arrivals merge into it: the engine
/// evaluates once and the response fans back to every waiter with its own
/// id. The coalescing window is therefore the head request's queueing
/// delay — under no load requests are never merged, under overload
/// identical points collapse into one evaluation.
class EventLoop {
 public:
  /// Borrows `server` for dispatch and `options` (the server's) for every
  /// transport knob; takes ownership of `listen_fd` and
  /// `metrics_listen_fd` (a loopback listener serving HTTP `GET /metrics`,
  /// or -1 for none), both already bound and listening, closed by `Run`.
  EventLoop(Server* server, const ServerOptions& options, int listen_fd,
            int metrics_listen_fd);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs the transport until the server is stopping and every connection
  /// has drained (graceful), or until `HardStop`. Blocks the caller (it
  /// becomes the poller).
  Status Run();

  /// Kicks the poller so a stop flag set elsewhere is noticed now instead
  /// of at the next poll timeout. Async-signal-safe (write(2)).
  void Wake();

  /// Close every connection without waiting for pending responses, then
  /// unwind `Run`. (Graceful stop is `Server::RequestStop` + `Wake`.)
  void HardStop();

 private:
  /// One response slot in a connection's ordered outgoing queue. Workers
  /// fill `text` then flip `ready`; the poller flushes slots strictly
  /// front to back, so responses keep request order.
  ///
  /// `owner` is the deadline handshake: 0 = unclaimed, 1 = the worker won
  /// (its rendered result is installed), 2 = the deadline reaper won (the
  /// slot holds a DeadlineExceeded line; the worker's result is discarded
  /// whole). Whoever wins the CAS writes `text` and flips `ready` — a slot
  /// is never half-written.
  struct Response {
    std::string text;  // includes the trailing '\n'
    std::atomic<bool> ready{false};
    std::atomic<int> owner{0};
    /// Per-request span, recorded by the worker while it owns the slot and
    /// finalized by the poller at flush completion — but only when the
    /// worker won the owner CAS (`owner == 1`): after a deadline reap the
    /// worker may still be writing these fields. Embedded by value so
    /// tracing allocates nothing.
    RequestSpan span;
    bool has_span = false;
  };

  /// Connection state, owned by the poller thread; workers touch only the
  /// Response slots.
  struct Connection {
    int fd = -1;
    bool closed = false;
    bool http = false;       // metrics-listener connection (GET /metrics)
    /// Output bytes this connection has contributed to the process-wide
    /// backlog gauge (kept so close can subtract exactly what was added).
    size_t backlog_gauge = 0;
    bool reading = true;     // cleared on EOF or graceful stop
    bool read_paused = false;  // EPOLLIN off: output backlog over the hwm
    bool want_write = false; // EPOLLOUT armed (partial write pending)
    bool executing = false;  // head request dispatched, response pending
    std::string in_buffer;
    std::deque<std::string> pending_lines;
    std::deque<std::shared_ptr<Response>> outgoing;
    size_t out_offset = 0;   // bytes of outgoing.front() already sent
    /// Idle-reap clock: last time a byte moved in either direction.
    std::chrono::steady_clock::time_point last_activity{};
    /// Deadline bookkeeping for the executing request (valid while
    /// `executing`): its slot, its expiry, and its id for the
    /// DeadlineExceeded line.
    std::shared_ptr<Response> exec_slot;
    std::chrono::steady_clock::time_point exec_deadline{};
    bool exec_has_id = false;
    JsonValue exec_id;
  };

  /// A listening socket: the line-protocol listener, or the `/metrics`
  /// one (`http`: no admission control, not counted as a connection).
  struct Listener {
    int fd = -1;
    bool http = false;
    /// Out of epoll after persistent accept failure, until `retry_at`
    /// (doubling backoff, reset by any successful accept).
    bool parked = false;
    std::chrono::steady_clock::time_point retry_at{};
    int backoff_ms = 0;
  };

  struct WorkItem {
    struct Waiter {
      std::shared_ptr<Connection> conn;
      std::shared_ptr<Response> slot;
      bool has_id = false;
      JsonValue id;
      /// The worker renders here, then installs into `slot` only after
      /// winning the owner CAS — a deadline-reaped slot never sees a
      /// partial (or late) result.
      std::string rendered;
    };
    bool raw = false;          // unparseable line: replay via HandleLine
    std::string line;          // raw == true
    JsonValue request;         // raw == false
    std::string coalesce_key;  // non-empty: mergeable while queued
    std::vector<Waiter> waiters;
  };

  void PollerLoop();
  void WorkerLoop();
  /// Registers `fd` with the poller for EPOLLIN.
  void Watch(int fd);
  void CloseListener(Listener& listener);
  /// Drains `listener`'s backlog. Out of fds, it still accepts the surplus
  /// connection (through the reserve fd) to answer it Unavailable — a JSON
  /// line, or an HTTP 503 on the metrics listener — and parks the
  /// listener if even that fails.
  void AcceptReady(Listener& listener);
  /// Parses a complete HTTP request head and queues the response; returns
  /// false when more bytes are needed.
  bool HandleHttpRequest(const std::shared_ptr<Connection>& conn);
  /// Deadline expiry, idle reaping, parked-listener retry — runs once per
  /// poll tick, and only when one of those features is armed.
  void Housekeeping();
  /// Takes the listener out of epoll after persistent accept failure and
  /// schedules a doubling-backoff retry (no busy-spin on EMFILE).
  void ParkListener(Listener& listener);
  void ReadReady(const std::shared_ptr<Connection>& conn);
  /// Dispatches the connection's head pending line (serial per connection)
  /// and flushes whatever is ready.
  void DispatchLines(const std::shared_ptr<Connection>& conn);
  void FlushConnection(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void UpdateInterest(Connection& conn);
  void Enqueue(std::shared_ptr<WorkItem> item);
  void Execute(WorkItem& item);
  /// Completes `span` at last-byte-flushed time: flush/total durations,
  /// the request histograms, the global span ring, and (over threshold)
  /// the slow-request log line.
  void FinalizeSpan(RequestSpan& span);
  /// Hands the completed response back to the poller.
  void Complete(WorkItem& item);

  Server* server_;
  const ServerOptions& options_;
  TransportMetrics& metrics_;
  int num_workers_ = 1;
  std::string overload_line_;      // pre-rendered accept-time rejection
  std::string fd_exhausted_line_;  // pre-rendered EMFILE rejection
  std::string http_unavailable_;   // the same, for the metrics listener

  // Created by the constructor (so `Wake` never races their creation) and
  // closed by the destructor; a creation failure surfaces from `Run`.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  Status setup_status_;
  std::atomic<bool> hard_stop_{false};

  // Poller-thread state: the listeners, the connections, and the EMFILE
  // reserve fd (closed to free a slot so the victim can be accepted and
  // told why it is being turned away).
  Listener listener_;
  Listener metrics_listener_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  int spare_fd_ = -1;

  // Connections whose head request a worker finished, drained by the
  // poller after every poll round.
  std::mutex completions_mu_;
  std::vector<std::shared_ptr<Connection>> completions_;

  // The shared request-work queue (the poller feeds it, all workers drain
  // it) plus the pending-coalesce index over queued-but-unstarted items.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<WorkItem>> queue_;
  std::unordered_map<std::string, std::shared_ptr<WorkItem>> pending_q2_;
  bool workers_stop_ = false;
};

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_EVENT_LOOP_H_
