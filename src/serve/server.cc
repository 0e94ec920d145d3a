#include "serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "knn/kernel_simd.h"
#include "serve/event_loop.h"
#include "serve/op_registry.h"
#include "serve/request_params.h"

namespace cpclean {

namespace {

/// The persisted creation spec: the request's parameters without the
/// transport fields (`id`, `op`) — exactly what `BuildTaskFromSpec` and
/// `ServeSessionOptionsFromRequest` consume again on rehydration.
JsonValue SpecFromRequest(const JsonValue& req) {
  JsonValue spec = JsonValue::MakeObject();
  for (const JsonValue::Member& member : req.object()) {
    if (member.first == "id" || member.first == "op") continue;
    spec.Set(member.first, member.second);
  }
  return spec;
}

/// A listening TCP socket on 127.0.0.1 and the port it got.
struct LoopbackListener {
  int fd;
  int port;
};

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). `what` prefixes
/// the error message.
Result<LoopbackListener> ListenOnLoopback(int port, const char* what) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("%sport %d outside [0, 65535]", what, port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("%ssocket: %s", what, std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  // Loopback only: the protocol carries no authentication.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    failed = "bind";
  } else if (::listen(fd, SOMAXCONN) != 0) {
    failed = "listen";
  }
  if (failed != nullptr) {
    const Status status = Status::IoError(
        StrFormat("%s%s: %s", what, failed, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return LoopbackListener{fd, static_cast<int>(ntohs(addr.sin_port))};
}

SessionStoreOptions StoreOptionsFrom(const ServerOptions& options) {
  SessionStoreOptions store;
  store.data_dir = options.data_dir;
  store.max_sessions = options.max_sessions;
  store.default_cache_capacity = options.default_cache_capacity;
  store.log_compact_bytes = options.log_compact_bytes;
  return store;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      store_(StoreOptionsFrom(options)),
      start_ns_(MonotonicNowNs()) {
  // Faults asked for in the environment apply to every transport this
  // server runs (a no-op unless CPCLEAN_FAULTS is set).
  FaultInjection::InitFromEnv();
}

Server::~Server() {
  Stop();
  // Backstop for destruction while ServeTcp is still winding down on
  // another thread: the event loop references this object, so wait for
  // ServeTcp to sign off.
  std::unique_lock<std::mutex> lock(conn_mu_);
  conn_cv_.wait(lock, [this] { return !serving_; });
}

Result<std::shared_ptr<ServeSession>> Server::FindSession(
    const std::string& name) {
  // Fast path, no lifecycle lock: live sessions answer queries without
  // ever contending with lifecycle transitions.
  Result<std::shared_ptr<ServeSession>> live = registry_.Get(name);
  if (live.ok() || !store_.enabled() || !store_.Saved(name)) return live;
  // Evicted (or persisted by a previous process): rehydrate lazily.
  return Rehydrate(name);
}

Result<std::shared_ptr<ServeSession>> Server::Rehydrate(
    const std::string& name) {
  // The expensive load (task rebuild + cleaning replay) runs OUTSIDE the
  // lifecycle lock so a slow rehydration cannot stall every other
  // lifecycle transition; publication re-validates under the lock.
  CP_ASSIGN_OR_RETURN(std::shared_ptr<ServeSession> session,
                      store_.Load(name));
  {
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    Result<std::shared_ptr<ServeSession>> live = registry_.Get(name);
    if (live.ok()) return live;  // another request rehydrated it first
    if (!store_.Saved(name)) {
      // A drop_session raced the load: publishing our copy would resurrect
      // a session the client was told is gone.
      return Status::NotFound(StrFormat(
          "session \"%s\" was dropped while being rehydrated", name.c_str()));
    }
    CP_RETURN_NOT_OK(registry_.Insert(session));
  }
  // Rehydration can push the registry over capacity in turn; the sweep
  // runs after the lifecycle lock is released (it takes the lock itself
  // around its commit). Best effort: if the sweep's victim fails to save,
  // the registry stays briefly over capacity rather than failing this
  // (unrelated) request — the next create_session surfaces the store
  // error.
  (void)store_.EnforceCapacity(registry_, lifecycle_mu_);
  return session;
}

Result<JsonValue> Server::CreateSession(const JsonValue& req) {
  CP_ASSIGN_OR_RETURN(const std::string name, RequestString(req, "session"));
  // Admission before the (expensive) task build: a full session table with
  // no disk to evict into must refuse loudly, not grow without bound.
  if (options_.max_sessions > 0 && !store_.enabled() &&
      registry_.size() >= options_.max_sessions) {
    return Status::Unavailable(StrFormat(
        "session table is full (--max-sessions=%d) and no --data-dir is "
        "configured to evict into",
        static_cast<int>(options_.max_sessions)));
  }
  if (registry_.Get(name).ok() || store_.Saved(name)) {
    return Status::AlreadyExists(
        StrFormat("session \"%s\" already exists", name.c_str()));
  }
  CP_ASSIGN_OR_RETURN(
      const ServeSessionOptions options,
      ServeSessionOptionsFromRequest(req, options_.default_cache_capacity));
  CP_ASSIGN_OR_RETURN(CleaningTask task, BuildTaskFromSpec(req));
  // Build AND prime the session outside the lock (task construction and
  // Make's certainty sweep are the expensive parts); only publish +
  // capacity sweep are a lifecycle transition. The unlocked admission
  // pre-check earlier only avoids wasted builds; over-capacity is decided
  // authoritatively under the lock.
  CP_ASSIGN_OR_RETURN(
      const std::shared_ptr<ServeSession> session,
      ServeSession::Make(name, std::move(task), options,
                         SpecFromRequest(req)));
  {
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    if (store_.Saved(name)) {
      // Re-checked under the lock: the name may have been created AND
      // evicted by others while we were building the task; creating over
      // its snapshot would fork two incarnations of one name.
      return Status::AlreadyExists(
          StrFormat("session \"%s\" already exists", name.c_str()));
    }
    CP_RETURN_NOT_OK(registry_.Insert(session));
    if (options_.max_sessions > 0 && !store_.enabled() &&
        registry_.size() > options_.max_sessions) {
      // Authoritative admission, decided under the lock (the unlocked
      // pre-check earlier only avoids wasted builds): with no disk to
      // evict into, over-capacity rolls the insert back and refuses.
      (void)registry_.Drop(session->name());
      return Status::Unavailable(StrFormat(
          "session table is full (--max-sessions=%d) and no --data-dir is "
          "configured to evict into",
          static_cast<int>(options_.max_sessions)));
    }
  }
  // The capacity sweep runs outside the lifecycle lock (snapshot
  // serialization is the expensive part; the sweep takes the lock itself
  // around its commit).
  const Result<std::vector<std::string>> evicted =
      store_.EnforceCapacity(registry_, lifecycle_mu_);
  if (!evicted.ok()) {
    // The eviction victim's save failed (disk full, unwritable data dir):
    // roll the new session back so an error response never leaves state
    // behind, and the registry honors --max-sessions.
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    (void)registry_.Drop(session->name());
    return evicted.status();
  }

  const CleaningTask& bound = session->task();
  JsonValue out = JsonValue::MakeObject();
  out.Set("session", JsonValue(session->name()));
  out.Set("train", JsonValue(bound.incomplete.num_examples()));
  out.Set("dirty", JsonValue(static_cast<int>(bound.DirtyRows().size())));
  out.Set("val", JsonValue(static_cast<int>(bound.val_x.size())));
  out.Set("test", JsonValue(static_cast<int>(bound.test_x.size())));
  out.Set("dim", JsonValue(bound.incomplete.dim()));
  out.Set("labels", JsonValue(bound.incomplete.num_labels()));
  out.Set("log2_worlds",
          JsonValue(bound.incomplete.Log2NumPossibleWorlds()));
  return out;
}

Result<JsonValue> Server::BatchQuery(
    const JsonValue& req,
    const std::function<Result<JsonValue>(
        ServeSession&, const std::vector<double>&)>& one) {
  CP_ASSIGN_OR_RETURN(const std::string name, RequestSessionName(req));
  CP_ASSIGN_OR_RETURN(const std::shared_ptr<ServeSession> session,
                      FindSession(name));
  CP_ASSIGN_OR_RETURN(
      const std::vector<std::vector<double>> points,
      ResolveRequestPoints(
          req, [&session](int index) { return session->ValPoint(index); }));
  JsonValue results = JsonValue::MakeArray();
  for (const std::vector<double>& point : points) {
    CP_ASSIGN_OR_RETURN(JsonValue value, one(*session, point));
    results.Append(std::move(value));
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("count", JsonValue(static_cast<int>(points.size())));
  out.Set("results", std::move(results));
  return out;
}

Result<JsonValue> Server::ListSessions(const JsonValue& req) {
  (void)req;
  JsonValue out = JsonValue::MakeObject();
  const std::vector<std::string> live = registry_.Names();
  JsonValue names = JsonValue::MakeArray();
  for (const std::string& n : live) names.Append(JsonValue(n));
  out.Set("sessions", std::move(names));
  if (store_.enabled()) {
    // Evicted sessions still own their names (create_session refuses
    // them; any query rehydrates them), so the listing must show them —
    // a client seeing only the live list would conclude the name is
    // free.
    JsonValue evicted = JsonValue::MakeArray();
    for (const std::string& n : store_.SavedNames()) {
      if (std::find(live.begin(), live.end(), n) == live.end()) {
        evicted.Append(JsonValue(n));
      }
    }
    out.Set("evicted", std::move(evicted));
  }
  // What this server build answers, grouped by concurrency class — the
  // same registry-derived object an evicted session's stats stub reports.
  out.Set("capabilities", OpCapabilities());
  return out;
}

Result<JsonValue> Server::DropSession(const JsonValue& req) {
  CP_ASSIGN_OR_RETURN(const std::string name, RequestString(req, "session"));
  // Dropping is a full discard: the snapshot goes too (eviction is the op
  // that keeps it). Snapshot first, live entry second — the reverse order
  // would let a concurrent request's lazy rehydration resurrect the
  // session from the not-yet-deleted snapshot after the registry drop —
  // and the whole discard is one lifecycle transition, so no concurrent
  // save or eviction sweep can re-write the snapshot mid-drop.
  // Either form existing counts as a successful drop.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  bool deleted_snapshot = false;
  if (store_.enabled() && store_.Saved(name)) {
    const Status deleted = store_.Delete(name);
    if (deleted.ok()) {
      deleted_snapshot = true;
    } else if (deleted.code() != StatusCode::kNotFound) {
      // An undeletable snapshot (read-only data dir) must fail the drop:
      // reporting success while a rehydratable file remains would let the
      // "discarded" session resurrect on the next request. NotFound just
      // means another drop raced us — fine.
      return deleted;
    }
  }
  const Status dropped_live = registry_.Drop(name);
  if (!dropped_live.ok() && !deleted_snapshot) return dropped_live;
  JsonValue out = JsonValue::MakeObject();
  out.Set("dropped", JsonValue(name));
  out.Set("deleted_snapshot", JsonValue(deleted_snapshot));
  return out;
}

Result<JsonValue> Server::SaveSession(const JsonValue& req) {
  CP_ASSIGN_OR_RETURN(const std::string name, RequestString(req, "session"));
  if (!store_.enabled()) {
    return Status::Unavailable(
        "session persistence is disabled (no --data-dir)");
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("saved", JsonValue(name));
  out.Set("path", JsonValue(store_.PathFor(name)));
  const Result<std::shared_ptr<ServeSession>> live = registry_.Get(name);
  if (!live.ok() && store_.Saved(name)) {
    // Already evicted: its snapshot IS its current state — rehydrating a
    // whole session just to rewrite an identical file would be pure waste
    // (and would churn the LRU sweep).
    out.Set("state", JsonValue("evicted"));
    return out;
  }
  CP_ASSIGN_OR_RETURN(const std::shared_ptr<ServeSession> session, live);
  // The store serializes OUTSIDE the lifecycle lock (serialization waits
  // for the session's shared lock — a long clean_run could hold it
  // exclusively for a while — and unrelated lifecycle ops must not queue
  // behind it); only the disk commit is a lifecycle transition, made only
  // while the registry still holds this instance.
  CP_ASSIGN_OR_RETURN(
      const bool committed,
      store_.SavePublished(registry_, lifecycle_mu_, *session));
  if (!committed) {
    if (!store_.Saved(name)) {
      // Dropped while we serialized: committing would have resurrected it.
      return Status::NotFound(StrFormat(
          "session \"%s\" was dropped while being saved", name.c_str()));
    }
    // Evicted before our save took the session's lock; the sweep saved
    // the same state, and no write can have landed on it since.
    out.Set("state", JsonValue("evicted"));
    return out;
  }
  out.Set("state", JsonValue("live"));
  return out;
}

Result<JsonValue> Server::LoadSession(const JsonValue& req) {
  CP_ASSIGN_OR_RETURN(const std::string name, RequestString(req, "session"));
  if (registry_.Get(name).ok()) {
    return Status::AlreadyExists(StrFormat(
        "session \"%s\" is already live", name.c_str()));
  }
  // A concurrent rehydration that published first answers for both.
  CP_ASSIGN_OR_RETURN(const std::shared_ptr<ServeSession> session,
                      Rehydrate(name));
  // The full session snapshot doubles as the load summary (progress,
  // resolved options, version).
  return session->Stats();
}

Result<JsonValue> Server::Stats(const JsonValue& req) {
  const JsonValue* name = req.Find("session");
  if (name != nullptr) {
    CP_ASSIGN_OR_RETURN(const std::string session_name,
                        RequestString(req, "session"));
    // Deliberately NOT FindSession: monitoring an evicted session must not
    // rehydrate it (a full task rebuild) or stamp it recently-used — a
    // stats poll over every known session would otherwise churn the LRU
    // sweep. Evicted sessions answer a stub instead.
    Result<std::shared_ptr<ServeSession>> live =
        registry_.Get(session_name);
    if (live.ok()) return live.value()->Stats();
    if (store_.enabled() && store_.Saved(session_name)) {
      JsonValue out = JsonValue::MakeObject();
      out.Set("name", JsonValue(session_name));
      out.Set("state", JsonValue("evicted"));
      out.Set("path", JsonValue(store_.PathFor(session_name)));
      // The stub still advertises what the session will answer once
      // rehydrated — the same registry-derived object list_sessions
      // reports, so monitoring sees one consistent capability surface.
      out.Set("capabilities", OpCapabilities());
      return out;
    }
    return live.status();
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("sessions", JsonValue(static_cast<int>(registry_.size())));
  JsonValue names = JsonValue::MakeArray();
  for (const std::string& n : registry_.Names()) names.Append(JsonValue(n));
  out.Set("names", std::move(names));
  out.Set("pool_threads", JsonValue(GlobalThreadPoolThreads()));
  // The similarity-kernel dispatch level every session on this process
  // runs at (bit-identical across levels, but operators of a forced fleet
  // need to see what resolved).
  out.Set("simd_level", JsonValue(SimdLevelName(simd::ActiveSimdLevel())));
  out.Set("max_sessions",
          JsonValue(static_cast<uint64_t>(options_.max_sessions)));
  out.Set("data_dir", JsonValue(options_.data_dir));
  if (store_.enabled()) {
    JsonValue saved = JsonValue::MakeArray();
    for (const std::string& n : store_.SavedNames()) {
      saved.Append(JsonValue(n));
    }
    out.Set("saved", std::move(saved));
  }
  // Degraded read-only mode: true while the data dir is unwritable (saves
  // and eviction fail; queries keep serving). Polling stats doubles as the
  // heal check — once the write backoff elapses, this call re-probes the
  // disk, so a healed dir clears here without waiting for the next save.
  out.Set("degraded", JsonValue(store_.CheckDegraded()));
  // Transport counters come from the process-wide registry instruments
  // (the ones the `metrics` op exports), so they sum over every server in
  // the process.
  const TransportMetrics& transport = TransportMetrics::Get();
  JsonValue connections = JsonValue::MakeObject();
  connections.Set("active", JsonValue(transport.active_connections.Value()));
  connections.Set("max", JsonValue(options_.max_connections));
  connections.Set("rejected",
                  JsonValue(transport.rejected_connections.Value()));
  // As configured (0 = hardware concurrency), NOT resolved: stats output
  // stays machine-independent, which the scripted smoke diffs rely on.
  connections.Set("request_workers", JsonValue(options_.request_workers));
  // The thread count actually running (configured value resolved against
  // hardware concurrency) — what capacity planning needs; the smoke
  // normalizer masks it.
  connections.Set("request_workers_actual",
                  JsonValue(options_.request_workers > 0
                                ? options_.request_workers
                                : ThreadPool::HardwareThreads()));
  connections.Set("max_inflight", JsonValue(options_.max_inflight));
  connections.Set("inflight", JsonValue(transport.inflight.Value()));
  connections.Set("rejected_requests",
                  JsonValue(transport.rejected_requests.Value()));
  connections.Set("coalesced_q2", JsonValue(transport.coalesce_hits.Value()));
  connections.Set("deadline_expired",
                  JsonValue(transport.deadline_expired.Value()));
  connections.Set("idle_reaped", JsonValue(transport.idle_reaped.Value()));
  connections.Set("oversized_requests",
                  JsonValue(transport.oversized_requests.Value()));
  connections.Set("overflow_closed",
                  JsonValue(transport.output_overflow_closed.Value()));
  out.Set("connections", std::move(connections));
  out.Set("uptime_ms",
          JsonValue(static_cast<uint64_t>((MonotonicNowNs() - start_ns_) /
                                          1000000ULL)));
  return out;
}

Result<JsonValue> Server::Metrics(const JsonValue& req) {
  (void)req;
  const MetricsSnapshot snapshot = MetricsRegistry::Get().Snapshot();
  JsonValue out = JsonValue::MakeObject();
  JsonValue counters = JsonValue::MakeObject();
  for (const auto& c : snapshot.counters) {
    counters.Set(c.first, JsonValue(c.second));
  }
  out.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::MakeObject();
  for (const auto& g : snapshot.gauges) {
    gauges.Set(g.first, JsonValue(g.second));
  }
  out.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::MakeObject();
  for (const auto& h : snapshot.histograms) {
    JsonValue hist = JsonValue::MakeObject();
    hist.Set("count", JsonValue(h.second.count));
    hist.Set("sum_ns", JsonValue(h.second.sum));
    hist.Set("min_ns", JsonValue(h.second.count > 0 ? h.second.min : 0));
    hist.Set("max_ns", JsonValue(h.second.count > 0 ? h.second.max : 0));
    hist.Set("p50_ns",
             JsonValue(static_cast<uint64_t>(h.second.Quantile(0.5))));
    hist.Set("p90_ns",
             JsonValue(static_cast<uint64_t>(h.second.Quantile(0.9))));
    hist.Set("p99_ns",
             JsonValue(static_cast<uint64_t>(h.second.Quantile(0.99))));
    hist.Set("p999_ns",
             JsonValue(static_cast<uint64_t>(h.second.Quantile(0.999))));
    histograms.Set(h.first, std::move(hist));
  }
  out.Set("histograms", std::move(histograms));
  // Newest-last ring of completed request spans (TCP transport only — the
  // stdio transport has no flush phase to time).
  JsonValue spans = JsonValue::MakeArray();
  for (const RequestSpan& s : GlobalSpanRing().Snapshot()) {
    JsonValue span = JsonValue::MakeObject();
    span.Set("op", JsonValue(std::string(s.op)));
    span.Set("total_ns", JsonValue(s.total_ns));
    JsonValue phases = JsonValue::MakeObject();
    for (int p = 0; p < kSpanPhaseCount; ++p) {
      phases.Set(SpanPhaseName(static_cast<SpanPhase>(p)),
                 JsonValue(s.phase_ns[p]));
    }
    span.Set("phases", std::move(phases));
    spans.Append(std::move(span));
  }
  out.Set("spans", std::move(spans));
  // Per-site fault-injection hit/fire counts, mirrored from fault_inject
  // so monitoring never has to arm the (gated) fault op just to read them.
  JsonValue sites = JsonValue::MakeArray();
  for (const FaultInjection::SiteStats& stats : FaultInjection::Stats()) {
    JsonValue site = JsonValue::MakeObject();
    site.Set("site", JsonValue(stats.site));
    site.Set("hits", JsonValue(stats.hits));
    site.Set("fires", JsonValue(stats.fires));
    sites.Append(std::move(site));
  }
  out.Set("fault_sites", std::move(sites));
  out.Set("slow_request_ms", JsonValue(options_.slow_request_ms));
  return out;
}

Result<JsonValue> Server::FaultInject(const JsonValue& req) {
  // Test-only: refused unless the operator opted in (CPCLEAN_FAULTS in the
  // environment, even empty) or a test armed it in-process — a production
  // client must not be able to start injecting faults over the wire.
  if (!FaultInjection::OpsArmed()) {
    return Status::Unavailable(
        "fault_inject is disabled (start the server with CPCLEAN_FAULTS "
        "set to arm it)");
  }
  const JsonValue* config = req.Find("config");
  if (config != nullptr) {
    if (!config->is_string()) {
      return Status::InvalidArgument("\"config\" must be a string");
    }
    // Replaces all rules; "" clears them. Syntax: see fault_injection.h
    // (e.g. "seed=7;store.rename=once;el.send=p:0.25").
    CP_RETURN_NOT_OK(FaultInjection::Configure(config->string_value()));
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("active", JsonValue(FaultInjection::Active()));
  JsonValue sites = JsonValue::MakeArray();
  for (const FaultInjection::SiteStats& stats : FaultInjection::Stats()) {
    JsonValue site = JsonValue::MakeObject();
    site.Set("site", JsonValue(stats.site));
    site.Set("hits", JsonValue(stats.hits));
    site.Set("fires", JsonValue(stats.fires));
    sites.Append(std::move(site));
  }
  out.Set("sites", std::move(sites));
  return out;
}

Result<JsonValue> Server::Dispatch(const std::string& op,
                                   const JsonValue& req) {
  // Registry-driven routing: the op's registry row carries its handler,
  // classification, and metrics label — there is no per-op dispatch code
  // to keep in sync here.
  const OpInfo* info = FindOp(op);
  if (info == nullptr) {
    return Status::InvalidArgument(
        StrFormat("unknown op \"%s\" (supported: %s)", op.c_str(),
                  SupportedOpsList().c_str()));
  }
  // Counted against the registered name (a bounded label set), never the
  // raw client string.
  OpRequestCounter(*info).Add(1);
  return info->handler(*this, req);
}

JsonValue Server::HandleRequest(const JsonValue& request) {
  JsonValue response = JsonValue::MakeObject();
  if (request.is_object()) {
    const JsonValue* id = request.Find("id");
    if (id != nullptr) response.Set("id", *id);
  }
  // Protocol version, stamped on every response (success, error, and the
  // parse-error path in HandleLine alike) so clients can gate on it.
  response.Set("proto", JsonValue(1));
  Result<JsonValue> result = [&]() -> Result<JsonValue> {
    if (!request.is_object()) {
      return Status::InvalidArgument("request must be a JSON object");
    }
    CP_ASSIGN_OR_RETURN(const std::string op, RequestString(request, "op"));
    return Dispatch(op, request);
  }();
  if (result.ok()) {
    response.Set("ok", JsonValue(true));
    response.Set("result", std::move(result).value());
  } else {
    response.Set("ok", JsonValue(false));
    JsonValue error = JsonValue::MakeObject();
    error.Set("code", JsonValue(StatusCodeToString(result.status().code())));
    error.Set("message", JsonValue(result.status().message()));
    response.Set("error", std::move(error));
  }
  return response;
}

std::string Server::HandleLine(const std::string& line) {
  size_t begin = line.find_first_not_of(" \t\r");
  if (begin == std::string::npos || line[begin] == '#') return std::string();
  Result<JsonValue> request = ParseJson(line);
  if (!request.ok()) {
    JsonValue response = JsonValue::MakeObject();
    response.Set("proto", JsonValue(1));
    response.Set("ok", JsonValue(false));
    JsonValue error = JsonValue::MakeObject();
    error.Set("code",
              JsonValue(StatusCodeToString(request.status().code())));
    error.Set("message", JsonValue(request.status().message()));
    response.Set("error", std::move(error));
    return response.Dump();
  }
  return HandleRequest(request.value()).Dump();
}

void Server::RunStdio(std::istream& in, std::ostream& out) {
  std::string line;
  while (!stopping_.load() && std::getline(in, line)) {
    const std::string response = HandleLine(line);
    if (response.empty()) continue;
    out << response << "\n";
    out.flush();
  }
}

Status Server::ServeTcp(int port) {
  const Result<LoopbackListener> listener = ListenOnLoopback(port, "");
  if (!listener.ok()) {
    bound_port_.store(-2);
    return listener.status();
  }
  // The /metrics HTTP listener (loopback, same event loop). Bound before
  // the main port is published so a client that saw both ports can scrape
  // immediately.
  LoopbackListener metrics{-1, -1};
  if (options_.metrics_port >= 0) {
    const Result<LoopbackListener> bound =
        ListenOnLoopback(options_.metrics_port, "metrics ");
    if (!bound.ok()) {
      ::close(listener.value().fd);
      bound_port_.store(-2);
      return bound.status();
    }
    metrics = bound.value();
    bound_metrics_port_.store(metrics.port);
  }
  listen_fd_.store(listener.value().fd);
  bound_port_.store(listener.value().port);

  // The event loop owns both listener fds from here (it closes them).
  EventLoop loop(this, options_, listener.value().fd, metrics.fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    loop_ = &loop;
    serving_ = true;
  }
  // This thread becomes the poller until the transport winds down.
  const Status status = loop.Run();
  listen_fd_.store(-1);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    loop_ = nullptr;
    serving_ = false;
  }
  conn_cv_.notify_all();
  bound_port_.store(-2);
  bound_metrics_port_.store(-1);
  return status;
}

void Server::RequestStop() {
  stopping_.store(true);
  const int fd = listen_fd_.load();
  if (fd >= 0) {
    // Wakes the accept loop; the fd itself is closed by ServeTcp. shutdown
    // is async-signal-safe, so this whole function may run from a signal
    // handler.
    ::shutdown(fd, SHUT_RDWR);
  }
}

void Server::Stop() {
  RequestStop();
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (loop_ != nullptr) loop_->HardStop();
}

}  // namespace cpclean
