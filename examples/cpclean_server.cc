// The CP-query serving daemon: named sessions over incomplete datasets,
// batched certify / Q2 / predict / cleaning operations, per-session result
// caching, and a process-global shared thread pool.
//
//   cpclean_server --stdio                 # line protocol on stdin/stdout
//   cpclean_server --port=7071             # TCP listener on 127.0.0.1
//   cpclean_server --port=0 --threads=8    # ephemeral port, 8-thread pool
//   cpclean_server --stdio --data-dir=/var/lib/cpclean --max-sessions=64
//                                          # snapshot persistence + eviction
//
// Protocol reference: README.md "Serving" (one JSON request per line, one
// JSON response per line). `--threads=N` sizes the global pool every
// session shares (0 = hardware concurrency); `--cache=N` sets the default
// per-session result-cache capacity. `--data-dir=PATH` enables session
// snapshot persistence (save_session/load_session, eviction, lazy
// rehydration across restarts); `--max-sessions=N` bounds resident
// sessions (LRU eviction into the data dir).
//
// Storage knob (README "Storage"): `--log-compact-bytes=N` sets the
// cleaning-log size at which a delta save compacts into a fresh full base
// snapshot.
//
// TCP transport knobs: one event-loop thread holds every connection, and
// identical concurrent q2 requests always merge into one engine
// evaluation. `--max-connections=N` bounds concurrent TCP connections (an
// fd-table guard; overload gets a structured error), `--max-inflight=N`
// bounds dispatched-but-unanswered requests (the real admission control —
// idle connections are nearly free), and `--request-workers=N` sizes the
// request execution pool (0 = hardware concurrency). Both admission
// bounds count process-wide.
//
// Every integer flag must parse as a whole 32-bit int (no trailing bytes,
// no silent wrap), and `--port` must lie in [0, 65535]; a bad value exits
// with status 2.
//
// Resilience knobs (README "Resilience"): `--request-timeout-ms=N`
// answers DeadlineExceeded for requests unanswered after N ms (0 = no
// deadline), `--idle-timeout-ms=N` closes connections idle for N ms
// (0 = never), `--max-request-bytes=N` bounds a request line (0 =
// unlimited), `--output-hwm-bytes=N` / `--max-output-bytes=N` bound a
// slow client's queued responses (pause reads / close). Deterministic
// fault injection arms via the CPCLEAN_FAULTS environment variable
// (see src/common/fault_injection.h for the syntax).
//
// Observability knobs (README "Observability", TCP only):
// `--metrics-port=N` serves Prometheus text on a loopback HTTP
// `GET /metrics` listener (0 = ephemeral, announced on stderr);
// `--slow-request-ms=N` logs one structured JSON line with the full span
// phase breakdown for every request slower than N ms.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "knn/kernel_simd.h"
#include "serve/server.h"

namespace {

cpclean::Server* g_server = nullptr;

void HandleSignal(int) {
  // RequestStop (not Stop): only atomics and shutdown(2), so it is safe in
  // a signal context. Connections drain gracefully.
  if (g_server != nullptr) g_server->RequestStop();
}

/// Matches `NAME=VALUE`. A VALUE that is not a whole int exits with
/// status 2 rather than being truncated or wrapped.
bool ParseIntFlag(const char* arg, const char* name, int* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  const cpclean::Result<int> value = cpclean::ParseInt(arg + len + 1);
  if (!value.ok()) {
    std::fprintf(stderr, "%s: %s\n", name, value.status().ToString().c_str());
    std::exit(2);
  }
  *out = value.value();
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpclean;

  int port = -1;
  int threads = 0;
  int cache = 1024;
  int max_sessions = 0;
  int max_connections = 0;
  int max_inflight = 0;
  int request_workers = 0;
  int request_timeout_ms = 0;
  int idle_timeout_ms = 0;
  int max_request_bytes = 1 << 20;
  int output_hwm_bytes = 4 << 20;
  int max_output_bytes = 32 << 20;
  int metrics_port = -1;
  int slow_request_ms = 0;
  std::string data_dir;
  int log_compact_bytes = 1 << 20;
  bool stdio = true;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    int value = 0;
    if (std::strcmp(arg, "--stdio") == 0) {
      stdio = true;
      port = -1;
    } else if (ParseIntFlag(arg, "--port", &value)) {
      port = value;
      stdio = false;
    } else if (ParseIntFlag(arg, "--threads", &value)) {
      threads = value;
    } else if (ParseIntFlag(arg, "--cache", &value)) {
      cache = value;
    } else if (ParseIntFlag(arg, "--max-sessions", &value)) {
      max_sessions = value;
    } else if (ParseIntFlag(arg, "--max-connections", &value)) {
      max_connections = value;
    } else if (ParseIntFlag(arg, "--max-inflight", &value)) {
      max_inflight = value;
    } else if (ParseIntFlag(arg, "--request-workers", &value)) {
      request_workers = value;
    } else if (ParseIntFlag(arg, "--request-timeout-ms", &value)) {
      request_timeout_ms = value;
    } else if (ParseIntFlag(arg, "--idle-timeout-ms", &value)) {
      idle_timeout_ms = value;
    } else if (ParseIntFlag(arg, "--max-request-bytes", &value)) {
      max_request_bytes = value;
    } else if (ParseIntFlag(arg, "--output-hwm-bytes", &value)) {
      output_hwm_bytes = value;
    } else if (ParseIntFlag(arg, "--max-output-bytes", &value)) {
      max_output_bytes = value;
    } else if (ParseIntFlag(arg, "--metrics-port", &value)) {
      metrics_port = value;
    } else if (ParseIntFlag(arg, "--slow-request-ms", &value)) {
      slow_request_ms = value;
    } else if (ParseStringFlag(arg, "--data-dir", &data_dir)) {
    } else if (ParseIntFlag(arg, "--log-compact-bytes", &value)) {
      log_compact_bytes = value;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: cpclean_server [--stdio | --port=N] [--threads=N] "
          "[--cache=N] [--data-dir=PATH] [--max-sessions=N] "
          "[--log-compact-bytes=N] "
          "[--max-connections=N] [--max-inflight=N] "
          "[--request-workers=N] "
          "[--request-timeout-ms=N] [--idle-timeout-ms=N] "
          "[--max-request-bytes=N] [--output-hwm-bytes=N] "
          "[--max-output-bytes=N] [--metrics-port=N] "
          "[--slow-request-ms=N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      return 2;
    }
  }
  if (threads < 0 || cache < 0 || max_sessions < 0 || max_connections < 0 ||
      max_inflight < 0 || request_workers < 0) {
    std::fprintf(stderr,
                 "--threads/--cache/--max-sessions/--max-connections/"
                 "--max-inflight/--request-workers must be >= 0\n");
    return 2;
  }
  if (request_timeout_ms < 0 || idle_timeout_ms < 0 ||
      max_request_bytes < 0 || output_hwm_bytes < 0 ||
      max_output_bytes < 0) {
    std::fprintf(stderr,
                 "--request-timeout-ms/--idle-timeout-ms/"
                 "--max-request-bytes/--output-hwm-bytes/"
                 "--max-output-bytes must be >= 0\n");
    return 2;
  }
  if (!stdio && (port < 0 || port > 65535)) {
    std::fprintf(stderr, "--port must be in [0, 65535]\n");
    return 2;
  }
  if (metrics_port < -1 || metrics_port > 65535) {
    std::fprintf(stderr, "--metrics-port must be -1 or in [0, 65535]\n");
    return 2;
  }
  if (slow_request_ms < 0) {
    std::fprintf(stderr, "--slow-request-ms must be >= 0\n");
    return 2;
  }
  if (log_compact_bytes < 1) {
    std::fprintf(stderr, "--log-compact-bytes must be >= 1\n");
    return 2;
  }
  if (metrics_port >= 0 && stdio) {
    std::fprintf(stderr,
                 "--metrics-port requires the TCP transport (--port=N)\n");
    return 2;
  }

  const Status pool_status = ConfigureGlobalThreadPool(threads);
  if (!pool_status.ok()) {
    std::fprintf(stderr, "%s\n", pool_status.ToString().c_str());
    return 2;
  }

  // Resolve the similarity-kernel dispatch table NOW: a bad CPCLEAN_SIMD
  // override must fail the launch, not abort a serving process at its
  // first kernel use after connections and sessions already exist.
  std::fprintf(stderr, "cpclean_server: similarity kernels at %s\n",
               SimdLevelName(simd::ActiveSimdLevel()));

  ServerOptions options;
  options.default_cache_capacity = static_cast<size_t>(cache);
  options.data_dir = data_dir;
  options.max_sessions = static_cast<size_t>(max_sessions);
  options.log_compact_bytes = static_cast<size_t>(log_compact_bytes);
  options.max_connections = max_connections;
  options.max_inflight = max_inflight;
  options.request_workers = request_workers;
  options.request_timeout_ms = request_timeout_ms;
  options.idle_timeout_ms = idle_timeout_ms;
  options.max_request_bytes = static_cast<size_t>(max_request_bytes);
  options.output_hwm_bytes = static_cast<size_t>(output_hwm_bytes);
  options.max_output_bytes = static_cast<size_t>(max_output_bytes);
  options.metrics_port = metrics_port;
  options.slow_request_ms = slow_request_ms;
  Server server(options);

  if (stdio) {
    // No signal handlers here: RequestStop cannot interrupt a getline
    // blocked on stdin (glibc restarts it), so the default terminate
    // disposition is the correct Ctrl-C behavior for the pipe transport.
    server.RunStdio(std::cin, std::cout);
    return 0;
  }

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::fprintf(stderr, "cpclean_server: pool=%d threads, cache=%d\n",
               GlobalThreadPoolThreads(), cache);
  // Bind happens inside ServeTcp; report the port it actually got (useful
  // with --port=0) once it is listening. port() moves off -1 on both the
  // listening and the failure path, so this thread always terminates.
  std::thread announce([&server] {
    while (server.port() == -1 && !server.stopping()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (server.port() >= 0) {
      std::fprintf(stderr, "cpclean_server: listening on 127.0.0.1:%d\n",
                   server.port());
      // Scrape scripts parse this line (the metrics port is bound before
      // the main port is published, so it is final here).
      if (server.metrics_port() >= 0) {
        std::fprintf(stderr, "cpclean_server: metrics on 127.0.0.1:%d\n",
                     server.metrics_port());
      }
    }
  });
  const Status status = server.ServeTcp(port);
  announce.join();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
