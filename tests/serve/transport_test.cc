// The epoll transport's contract: responses byte-identical to the line
// protocol's canonical rendering (Server::HandleLine) under partial
// writes, pipelining, and concurrent connections; thousands of idle
// connections held without threads; request-level admission control;
// identical q2 requests coalescing into one evaluation under load; and each
// stats connection counter reading its one metrics-registry instrument.

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "serve/server.h"
#include "tests/serve/serve_test_util.h"

namespace cpclean {
namespace {

using serve_test::LineClient;
using serve_test::ParseOk;

std::string CreateRequest(const std::string& name, int train_rows) {
  return StrFormat(
      "{\"op\":\"create_session\",\"session\":\"%s\",\"source\":"
      "\"synthetic\",\"dataset\":\"transport\",\"train_rows\":%d,"
      "\"val_size\":6,\"test_size\":4,\"seed\":41,\"numeric\":4,"
      "\"categorical\":0,\"noise_sigma\":0.3,\"missing_rate\":0.25,"
      "\"k\":3}",
      name.c_str(), train_rows);
}

/// Holds the request workers: while in scope, every request the transport
/// executes first stalls `ms` milliseconds at the serve.exec fault site, so
/// a request sent behind it is still queued (or refused admission) however
/// fast the request ahead of it computes. Clears the rule on scope exit, so
/// no rule leaks into a later test of the same process.
class StallExec {
 public:
  explicit StallExec(int ms) {
    EXPECT_TRUE(
        FaultInjection::Configure(StrFormat("serve.exec=sleep:%d", ms)).ok());
  }
  ~StallExec() { FaultInjection::Clear(); }
  StallExec(const StallExec&) = delete;
  StallExec& operator=(const StallExec&) = delete;
};

/// Starts `server` on an ephemeral port on a background thread and waits
/// for the listener. Caller joins via the returned thread after Stop() or
/// a shutdown op.
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

TEST(TransportTest, PartialWritesFrameExactlyLikeHandleLine) {
  // A slow client dribbling bytes must get the same response bytes the
  // canonical line handler produces — framing is about byte boundaries,
  // never about write boundaries.
  Server server;
  Server twin;
  std::thread serving = Serve(server);
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  // One request split at an arbitrary byte, plus the head of the next.
  const std::string first = "{\"op\":\"ping\",\"id\":1}";
  const std::string second = "{\"op\":\"ping\",\"id\":2}";
  ASSERT_TRUE(client.Send(first + "\n" + second.substr(0, 9)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.Send(second.substr(9) + "\n"));
  EXPECT_EQ(client.ReadLine(), twin.HandleLine(first));
  EXPECT_EQ(client.ReadLine(), twin.HandleLine(second));

  // Byte-at-a-time: the most hostile framing a client can produce.
  const std::string third = "{\"op\":\"ping\",\"id\":3}\n";
  for (const char c : third) {
    ASSERT_TRUE(client.Send(std::string(1, c)));
  }
  EXPECT_EQ(client.ReadLine(),
            twin.HandleLine("{\"op\":\"ping\",\"id\":3}"));

  // Blank lines and comments produce no response at all; the next real
  // request's response follows directly.
  ASSERT_TRUE(client.Send("\n  # annotation\n{\"op\":\"ping\",\"id\":4}\n"));
  EXPECT_EQ(client.ReadLine(),
            twin.HandleLine("{\"op\":\"ping\",\"id\":4}"));

  // Unparseable lines replay through the canonical parse-error rendering.
  ASSERT_TRUE(client.Send("{nope\n"));
  EXPECT_EQ(client.ReadLine(), twin.HandleLine("{nope"));

  server.Stop();
  serving.join();
}

TEST(TransportTest, PipelinedRequestsAnswerInOrderBitIdentical) {
  // A connection that fires its whole script in one write gets every
  // response, in request order, each byte-identical to the serial line
  // handler — including ordering effects (the create is visible to the
  // q2 behind it, the clean_step's version bump to the q2 behind that).
  Server server;
  Server twin;
  std::thread serving = Serve(server);
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> script = {
      CreateRequest("pipe", 30),
      "{\"op\":\"ping\",\"id\":1}",
      "{\"op\":\"q2\",\"session\":\"pipe\",\"val_indices\":[0],\"id\":2}",
      "{\"op\":\"stats\",\"session\":\"pipe\",\"id\":3}",
      "{\"op\":\"clean_step\",\"session\":\"pipe\",\"id\":4}",
      "{\"op\":\"q2\",\"session\":\"pipe\",\"val_indices\":[0],\"id\":5}",
  };
  std::string block;
  for (const std::string& line : script) {
    block += line;
    block.push_back('\n');
  }
  ASSERT_TRUE(client.Send(block));
  // The stats response embeds last_request_unix_ms, a wall-clock stamp
  // that can land one tick apart between the server and the twin; mask
  // it. Every other byte must match exactly.
  const auto mask_clock = [](std::string response) {
    const std::string field = "\"last_request_unix_ms\":";
    const size_t at = response.find(field);
    if (at == std::string::npos) return response;
    size_t end = at + field.size();
    while (end < response.size() &&
           std::isdigit(static_cast<unsigned char>(response[end]))) {
      response.erase(end, 1);
    }
    return response;
  };
  for (const std::string& line : script) {
    EXPECT_EQ(mask_clock(client.ReadLine()), mask_clock(twin.HandleLine(line)))
        << line;
  }

  server.Stop();
  serving.join();
}

TEST(TransportTest, ThousandIdleConnectionsStayResponsive) {
  // Idle connections cost the event loop one fd each, not one thread:
  // with ~1000 parked connections a fresh client's pings still answer,
  // and the parked connections themselves are still alive afterwards.
  // Each connection consumes two fds in this process (client + server
  // end), so raise RLIMIT_NOFILE first and scale to what we actually get
  // (CI soft limits are often 1024).
  rlimit rl{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &rl), 0);
  const rlim_t want = 2300;
  if (rl.rlim_cur < want) {
    rlimit raised = rl;
    raised.rlim_cur =
        rl.rlim_max == RLIM_INFINITY
            ? want
            : (rl.rlim_max < want ? rl.rlim_max : want);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  const int idle_target =
      static_cast<int>((rl.rlim_cur - 128) / 2) < 1000
          ? static_cast<int>((rl.rlim_cur - 128) / 2)
          : 1000;
  ASSERT_GT(idle_target, 100) << "fd limit too low to exercise anything";

  Server server;
  Server twin;
  std::thread serving = Serve(server);
  const int port = server.port();

  std::vector<std::unique_ptr<LineClient>> idle;
  idle.reserve(static_cast<size_t>(idle_target));
  for (int i = 0; i < idle_target; ++i) {
    auto conn = std::make_unique<LineClient>(port);
    ASSERT_TRUE(conn->connected()) << "connection " << i;
    idle.push_back(std::move(conn));
  }

  LineClient probe(port);
  ASSERT_TRUE(probe.connected());
  for (int i = 0; i < 3; ++i) {
    const std::string response = probe.Issue("{\"op\":\"ping\",\"id\":9}");
    EXPECT_EQ(response, twin.HandleLine("{\"op\":\"ping\",\"id\":9}"));
  }
  // The parked connections are live, not just half-open fds.
  ParseOk(idle.front()->Issue("{\"op\":\"ping\"}"));
  ParseOk(idle.back()->Issue("{\"op\":\"ping\"}"));

  const JsonValue stats = ParseOk(probe.Issue("{\"op\":\"stats\"}"));
  const JsonValue* conns = stats.Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_GE(conns->Find("active")->number_value(), idle_target);

  idle.clear();
  server.Stop();
  serving.join();
}

TEST(TransportTest, IdenticalQ2sCoalesceUnderLoad) {
  // Two identical q2 requests (ids aside) waiting behind a stalled write
  // collapse into one evaluation; each waiter still gets the canonical
  // response bytes under its own id.
  ServerOptions options;
  options.request_workers = 1;  // everything funnels through one worker
  Server server(options);
  Server twin;
  std::thread serving = Serve(server);
  const int port = server.port();

  LineClient creator(port);
  ASSERT_TRUE(creator.connected());
  ParseOk(creator.Issue(CreateRequest("co", 120)));
  ParseOk(twin.HandleLine(CreateRequest("co", 120)));

  // Park a stalled cleaning run on the single worker, give it a moment to
  // start, then land two identical q2 points while it holds the worker.
  auto stall = std::make_unique<StallExec>(300);
  LineClient writer(port);
  LineClient reader_a(port);
  LineClient reader_b(port);
  ASSERT_TRUE(writer.connected());
  ASSERT_TRUE(reader_a.connected());
  ASSERT_TRUE(reader_b.connected());
  const std::string clean = "{\"op\":\"clean_run\",\"session\":\"co\"}";
  ASSERT_TRUE(writer.Send(clean + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string q2_a =
      "{\"op\":\"q2\",\"session\":\"co\",\"val_indices\":[1],\"id\":7}";
  const std::string q2_b =
      "{\"op\":\"q2\",\"session\":\"co\",\"val_indices\":[1],\"id\":8}";
  ASSERT_TRUE(reader_a.Send(q2_a + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(reader_b.Send(q2_b + "\n"));

  const std::string got_a = reader_a.ReadLine();
  const std::string got_b = reader_b.ReadLine();
  const std::string got_clean = writer.ReadLine();
  stall.reset();
  EXPECT_EQ(got_clean, twin.HandleLine(clean));
  EXPECT_EQ(got_a, twin.HandleLine(q2_a));
  EXPECT_EQ(got_b, twin.HandleLine(q2_b));

  const JsonValue stats = ParseOk(creator.Issue("{\"op\":\"stats\"}"));
  const JsonValue* conns = stats.Find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_GE(conns->Find("coalesced_q2")->number_value(), 1)
      << "identical q2s queued behind the busy worker should have merged";

  server.Stop();
  serving.join();
}

TEST(TransportTest, InflightLimitRejectsWithStructuredError) {
  // Admission control bounds in-flight REQUESTS, not connections: with
  // the single permit held by a stalled cleaning run, a new request answers
  // Unavailable immediately — carrying its own id — and succeeds on
  // retry once the permit frees up.
  ServerOptions options;
  options.request_workers = 1;
  options.max_inflight = 1;
  Server server(options);
  std::thread serving = Serve(server);
  const int port = server.port();

  LineClient creator(port);
  ASSERT_TRUE(creator.connected());
  ParseOk(creator.Issue(CreateRequest("adm", 120)));

  auto stall = std::make_unique<StallExec>(300);
  LineClient writer(port);
  LineClient reader(port);
  ASSERT_TRUE(writer.connected());
  ASSERT_TRUE(reader.connected());
  ASSERT_TRUE(writer.Send("{\"op\":\"clean_run\",\"session\":\"adm\"}\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::string q2 =
      "{\"op\":\"q2\",\"session\":\"adm\",\"val_indices\":[0],\"id\":5}";
  const std::string rejection = reader.Issue(q2);
  stall.reset();
  auto parsed = ParseJson(rejection);
  ASSERT_TRUE(parsed.ok()) << rejection;
  EXPECT_EQ(parsed.value().Find("id")->number_value(), 5) << rejection;
  EXPECT_FALSE(parsed.value().Find("ok")->bool_value()) << rejection;
  ASSERT_NE(parsed.value().Find("error"), nullptr) << rejection;
  EXPECT_EQ(parsed.value().Find("error")->Find("code")->string_value(),
            "Unavailable")
      << rejection;

  // The run completes, the permit frees, the retry goes through.
  const std::string run_done = writer.ReadLine();
  ParseOk(run_done);
  JsonValue retry;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::string response = reader.Issue(q2);
    auto again = ParseJson(response);
    ASSERT_TRUE(again.ok()) << response;
    if (again.value().Find("ok")->bool_value()) {
      retry = again.value();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(retry.is_object() && retry.Find("ok") != nullptr &&
              retry.Find("ok")->bool_value())
      << "q2 never succeeded after the permit freed";

  const JsonValue stats = ParseOk(creator.Issue("{\"op\":\"stats\"}"));
  EXPECT_GE(
      stats.Find("connections")->Find("rejected_requests")->number_value(),
      1);

  server.Stop();
  serving.join();
}

TEST(TransportTest, OutOfRangePortsFailInsteadOfWrapping) {
  // htons would wrap 70000 into a real port; the listener refuses it.
  Server server;
  EXPECT_EQ(server.ServeTcp(70000).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.port(), -2);

  ServerOptions options;
  options.metrics_port = 65536;
  Server metrics(options);
  EXPECT_EQ(metrics.ServeTcp(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(metrics.port(), -2);
  EXPECT_EQ(metrics.metrics_port(), -1);
}

TEST(TransportTest, EveryConnectionCounterIsItsRegistryInstrument) {
  // Each transport event is counted once, in the metrics registry: every
  // counter field of the global stats op's `connections` object reads the
  // instrument the `metrics` op exports under its registry name.
  ServerOptions options;
  options.request_workers = 1;
  options.max_inflight = 1;
  options.max_request_bytes = 256;
  Server server(options);
  std::thread serving = Serve(server);
  const int port = server.port();

  LineClient creator(port);
  ASSERT_TRUE(creator.connected());
  ParseOk(creator.Issue(CreateRequest("one", 120)));

  // A rejected request: the single in-flight permit is held by a stalled
  // run.
  auto stall = std::make_unique<StallExec>(300);
  LineClient writer(port);
  LineClient reader(port);
  ASSERT_TRUE(writer.connected());
  ASSERT_TRUE(reader.connected());
  ASSERT_TRUE(writer.Send("{\"op\":\"clean_run\",\"session\":\"one\"}\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string rejection =
      reader.Issue("{\"op\":\"q2\",\"session\":\"one\",\"val_indices\":[0]}");
  stall.reset();
  EXPECT_NE(rejection.find("Unavailable"), std::string::npos) << rejection;
  ParseOk(writer.ReadLine());

  // An oversized line: answered, then the connection closes.
  {
    LineClient oversized(port);
    ASSERT_TRUE(oversized.connected());
    ASSERT_TRUE(oversized.Send(std::string(300, 'x') + "\n"));
    EXPECT_NE(oversized.ReadLine(), "");
    EXPECT_EQ(oversized.ReadLine(), "");
  }

  // Read both ops in process, so neither is itself in flight, once the
  // transport has settled: three open connections and nothing in flight.
  JsonValue connections;
  for (int attempt = 0; attempt < 500; ++attempt) {
    connections =
        *ParseOk(server.HandleLine("{\"op\":\"stats\"}")).Find("connections");
    if (connections.Find("inflight")->number_value() == 0 &&
        connections.Find("active")->number_value() == 3) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(connections.Find("inflight")->number_value(), 0);
  EXPECT_EQ(connections.Find("active")->number_value(), 3);
  EXPECT_GE(connections.Find("rejected_requests")->number_value(), 1);
  EXPECT_GE(connections.Find("oversized_requests")->number_value(), 1);

  const JsonValue metrics = ParseOk(server.HandleLine("{\"op\":\"metrics\"}"));
  const struct {
    const char* field;
    const char* kind;
    const char* instrument;
  } kSources[] = {
      {"active", "gauges", "serve.active_connections"},
      {"inflight", "gauges", "serve.inflight"},
      {"rejected", "counters", "serve.rejected_connections_total"},
      {"rejected_requests", "counters", "serve.rejected_requests_total"},
      {"coalesced_q2", "counters", "serve.coalesce_hits_total"},
      {"deadline_expired", "counters", "serve.deadline_expired_total"},
      {"idle_reaped", "counters", "serve.idle_reaped_total"},
      {"oversized_requests", "counters", "serve.oversized_requests_total"},
      {"overflow_closed", "counters", "serve.output_overflow_closed_total"},
  };
  for (const auto& source : kSources) {
    const JsonValue* field = connections.Find(source.field);
    const JsonValue* instrument =
        metrics.Find(source.kind)->Find(source.instrument);
    ASSERT_NE(field, nullptr) << source.field;
    ASSERT_NE(instrument, nullptr) << source.instrument;
    EXPECT_EQ(field->number_value(), instrument->number_value())
        << source.field << " vs " << source.instrument;
  }

  server.Stop();
  serving.join();
}

}  // namespace
}  // namespace cpclean
