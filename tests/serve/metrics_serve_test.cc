// The observability surface of the serving layer: the `metrics` op's
// snapshot (instruments, spans, fault sites), the resolved-vs-configured
// worker count in `stats`, the slow-request structured log driven by an
// injected execution stall, and the HTTP `GET /metrics` Prometheus
// endpoint riding the same event loop, including its fd-exhaustion path.

#include <sys/socket.h>
#include <netinet/in.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "serve/server.h"
#include "tests/serve/serve_test_util.h"

namespace cpclean {
namespace {

using serve_test::LineClient;
using serve_test::ParseOk;

std::thread Serve(Server& server) {
  std::thread serving([&server] {
    const Status status = server.ServeTcp(0);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  while (server.port() == -1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.port(), 0);
  return serving;
}

/// One-shot HTTP exchange against 127.0.0.1:`port`: sends `request` raw,
/// reads until the server closes. "" on connect failure.
std::string HttpGet(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) break;
    sent += static_cast<size_t>(w);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsServeTest, StatsReportsConfiguredAndActualWorkers) {
  // Default (0 = hardware concurrency): the configured field stays 0 so
  // smoke diffs are machine-independent, the actual field resolves.
  Server defaults;
  JsonValue stats = ParseOk(
      defaults.HandleLine("{\"op\":\"stats\"}").c_str());
  const JsonValue* conns = stats.Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_EQ(conns->Find("request_workers")->number_value(), 0.0);
  EXPECT_EQ(conns->Find("request_workers_actual")->number_value(),
            static_cast<double>(ThreadPool::HardwareThreads()));
  ASSERT_NE(stats.Find("uptime_ms"), nullptr);

  ServerOptions options;
  options.request_workers = 3;
  Server pinned(options);
  stats = ParseOk(pinned.HandleLine("{\"op\":\"stats\"}").c_str());
  conns = stats.Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_EQ(conns->Find("request_workers")->number_value(), 3.0);
  EXPECT_EQ(conns->Find("request_workers_actual")->number_value(), 3.0);
}

TEST(MetricsServeTest, MetricsOpReportsInstrumentsAndSpans) {
  Server server;
  std::thread serving = Serve(server);
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_NE(client.Issue("{\"op\":\"ping\",\"id\":1}"), "");
  ASSERT_NE(client.Issue("{\"op\":\"ping\",\"id\":2}"), "");

  const JsonValue metrics = ParseOk(client.Issue("{\"op\":\"metrics\"}"));
  const JsonValue* counters = metrics.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* requests = counters->Find("serve.requests_total");
  ASSERT_NE(requests, nullptr);
  // The registry is process-global, so only >= holds across test order.
  EXPECT_GE(requests->number_value(), 2.0);
  ASSERT_NE(counters->Find("serve.accepts_total"), nullptr);

  const JsonValue* gauges = metrics.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("serve.active_connections"), nullptr);

  const JsonValue* histograms = metrics.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* request_ns = histograms->Find("serve.request_ns");
  ASSERT_NE(request_ns, nullptr);
  EXPECT_GE(request_ns->Find("count")->number_value(), 1.0);
  EXPECT_GE(request_ns->Find("p99_ns")->number_value(),
            request_ns->Find("p50_ns")->number_value());
  EXPECT_GE(request_ns->Find("max_ns")->number_value(),
            request_ns->Find("min_ns")->number_value());

  // The pings above were flushed before their responses could be read, so
  // their spans are in the ring.
  const JsonValue* spans = metrics.Find("spans");
  ASSERT_NE(spans, nullptr);
  bool saw_ping_span = false;
  for (const JsonValue& span : spans->array()) {
    if (span.Find("op")->string_value() != "ping") continue;
    saw_ping_span = true;
    const JsonValue* phases = span.Find("phases");
    ASSERT_NE(phases, nullptr);
    ASSERT_NE(phases->Find("queue_wait"), nullptr);
    ASSERT_NE(phases->Find("flush"), nullptr);
    EXPECT_GT(span.Find("total_ns")->number_value(), 0.0);
  }
  EXPECT_TRUE(saw_ping_span);

  ASSERT_NE(metrics.Find("fault_sites"), nullptr);
  ASSERT_NE(metrics.Find("slow_request_ms"), nullptr);

  server.Stop();
  serving.join();
}

TEST(MetricsServeTest, SlowRequestStallEmitsStructuredLogLine) {
  FaultInjection::ArmOps();
  std::mutex log_mu;
  std::vector<std::string> log_lines;
  ServerOptions options;
  options.slow_request_ms = 5;
  options.slow_log = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mu);
    log_lines.push_back(line);
  };
  Server server(options);
  std::thread serving = Serve(server);
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  // A fast ping stays under the threshold: no log line.
  ASSERT_NE(client.Issue("{\"op\":\"ping\",\"id\":1}"), "");
  // Stall execution 25 ms > the 5 ms threshold via the serve.exec site.
  ParseOk(client.Issue(
      "{\"op\":\"fault_inject\",\"config\":\"serve.exec=sleep:25\"}"));
  ASSERT_NE(client.Issue("{\"op\":\"ping\",\"id\":2}"), "");

  // The injected stall shows up as a fire on the serve.exec site in the
  // metrics snapshot (satellite: fault telemetry without arming the op).
  // Checked before clearing the rules — clearing resets the site stats.
  const JsonValue metrics = ParseOk(client.Issue("{\"op\":\"metrics\"}"));
  bool saw_exec_site = false;
  for (const JsonValue& site : metrics.Find("fault_sites")->array()) {
    if (site.Find("site")->string_value() != "serve.exec") continue;
    saw_exec_site = true;
    EXPECT_GE(site.Find("fires")->number_value(), 1.0);
  }
  EXPECT_TRUE(saw_exec_site);
  ParseOk(client.Issue("{\"op\":\"fault_inject\",\"config\":\"\"}"));

  // The log line is emitted just after the response bytes hit the socket;
  // give the poller a beat to get there.
  std::string slow_line;
  for (int i = 0; i < 200 && slow_line.empty(); ++i) {
    {
      std::lock_guard<std::mutex> lock(log_mu);
      for (const std::string& line : log_lines) {
        if (line.find("\"op\":\"ping\"") != std::string::npos) {
          slow_line = line;
        }
      }
    }
    if (slow_line.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_FALSE(slow_line.empty());
  auto parsed = ParseJson(slow_line);
  ASSERT_TRUE(parsed.ok()) << slow_line;
  const JsonValue& entry = parsed.value();
  EXPECT_EQ(entry.Find("event")->string_value(), "slow_request");
  EXPECT_EQ(entry.Find("threshold_ms")->number_value(), 5.0);
  EXPECT_GE(entry.Find("total_ms")->number_value(), 5.0);
  const JsonValue* phases = entry.Find("phases_ms");
  ASSERT_NE(phases, nullptr);
  ASSERT_NE(phases->Find("queue_wait"), nullptr);
  ASSERT_NE(phases->Find("flush"), nullptr);

  server.Stop();
  serving.join();
}

TEST(MetricsServeTest, HttpMetricsEndpointServesPrometheusText) {
  ServerOptions options;
  options.metrics_port = 0;  // ephemeral
  Server server(options);
  std::thread serving = Serve(server);
  ASSERT_GE(server.metrics_port(), 0);
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_NE(client.Issue("{\"op\":\"ping\",\"id\":1}"), "");

  const std::string response = HttpGet(
      server.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("# TYPE cpclean_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("cpclean_serve_request_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(response.find("cpclean_serve_request_ns_count"),
            std::string::npos);

  const std::string missing = HttpGet(
      server.metrics_port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  // The scrape connections must not count against (or show up in) the
  // main transport's connection accounting.
  const JsonValue stats = ParseOk(client.Issue("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("connections")->Find("active")->number_value(), 1.0);

  server.Stop();
  serving.join();
}

TEST(MetricsServeTest, HttpListenerTurnsAwayOnFdExhaustionThenRecovers) {
  // The metrics listener shares the main listener's accept path: out of
  // fds, the surplus scrape is accepted through the reserve fd and told
  // 503, rather than left in the backlog where the level-triggered
  // listener would spin the poller.
  FaultInjection::Clear();
  ServerOptions options;
  options.metrics_port = 0;
  Server server(options);
  std::thread serving = Serve(server);
  ASSERT_GE(server.metrics_port(), 0);
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  Server twin;
  const std::string ping = "{\"op\":\"ping\",\"id\":1}";
  ASSERT_EQ(client.Issue(ping), twin.HandleLine(ping));

  ASSERT_TRUE(FaultInjection::Configure("el.accept=once").ok());
  const std::string refused =
      HttpGet(server.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(refused.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u)
      << refused;
  EXPECT_NE(refused.find("file descriptors exhausted"), std::string::npos);

  const std::string scraped =
      HttpGet(server.metrics_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(scraped.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << scraped;
  EXPECT_EQ(client.Issue(ping), twin.HandleLine(ping));
  FaultInjection::Clear();

  server.Stop();
  serving.join();
}

}  // namespace
}  // namespace cpclean
