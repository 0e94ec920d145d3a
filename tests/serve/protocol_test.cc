// Protocol round-trips against the request router: session lifecycle,
// batched queries, error paths, and — the subsystem's acceptance bar —
// bit-identical certify / Q2 answers between the served protocol (JSON all
// the way through) and direct library calls, with cache hits on repeats
// and precise invalidation after cleaning steps.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cleaning/certify.h"
#include "cleaning/cp_clean.h"
#include "common/string_util.h"
#include "core/fast_q2.h"
#include "eval/experiment.h"
#include "knn/kernel.h"
#include "serve/server.h"

namespace cpclean {
namespace {

constexpr int kTrain = 48;
constexpr int kVal = 12;
constexpr int kTest = 12;
constexpr uint64_t kSeed = 29;
constexpr int kK = 3;

/// The create_session request whose server-side task construction the
/// reference below replicates exactly.
std::string CreateRequest(const std::string& name) {
  return StrFormat(
      "{\"op\":\"create_session\",\"session\":\"%s\",\"source\":"
      "\"synthetic\",\"dataset\":\"proto\",\"train_rows\":%d,\"val_size\":%d,"
      "\"test_size\":%d,\"seed\":%d,\"numeric\":4,\"categorical\":0,"
      "\"noise_sigma\":0.3,\"missing_rate\":0.2,\"k\":%d}",
      name.c_str(), kTrain, kVal, kTest, static_cast<int>(kSeed), kK);
}

/// Direct-library twin of CreateRequest's dataset.
PreparedExperiment MakeReference(const SimilarityKernel& kernel) {
  ExperimentConfig config;
  config.dataset.name = "proto";
  config.dataset.synthetic.name = "proto";
  config.dataset.synthetic.num_rows = kTrain + kVal + kTest;
  config.dataset.synthetic.num_numeric = 4;
  config.dataset.synthetic.num_categorical = 0;
  config.dataset.synthetic.noise_sigma = 0.3;
  config.dataset.synthetic.seed = kSeed;
  config.dataset.missing_rate = 0.2;
  config.dataset.val_size = kVal;
  config.dataset.test_size = kTest;
  config.k = kK;
  config.seed = kSeed;
  return PrepareExperiment(config, kernel).value();
}

JsonValue Respond(Server* server, const std::string& line) {
  const std::string response = server->HandleLine(line);
  auto parsed = ParseJson(response);
  EXPECT_TRUE(parsed.ok()) << response;
  return parsed.value();
}

JsonValue RespondOk(Server* server, const std::string& line) {
  const JsonValue response = Respond(server, line);
  EXPECT_NE(response.Find("ok"), nullptr) << response.Dump();
  EXPECT_TRUE(response.Find("ok")->bool_value()) << response.Dump();
  return *response.Find("result");
}

std::string RespondErrorCode(Server* server, const std::string& line) {
  const JsonValue response = Respond(server, line);
  EXPECT_FALSE(response.Find("ok") == nullptr ||
               response.Find("ok")->bool_value())
      << response.Dump();
  const JsonValue* error = response.Find("error");
  if (error == nullptr || error->Find("code") == nullptr) return "";
  return error->Find("code")->string_value();
}

std::vector<double> NumberArray(const JsonValue& v) {
  std::vector<double> out;
  for (const JsonValue& x : v.array()) out.push_back(x.number_value());
  return out;
}

TEST(ProtocolTest, SessionLifecycle) {
  Server server;
  const JsonValue created = RespondOk(&server, CreateRequest("s1"));
  EXPECT_EQ(created.Find("train")->number_value(), kTrain);
  EXPECT_EQ(created.Find("val")->number_value(), kVal);
  EXPECT_GT(created.Find("dirty")->number_value(), 0);

  const JsonValue listed = RespondOk(&server, "{\"op\":\"list_sessions\"}");
  ASSERT_EQ(listed.Find("sessions")->array().size(), 1u);
  EXPECT_EQ(listed.Find("sessions")->array()[0].string_value(), "s1");

  // Duplicate name is a structured error, not a replacement.
  EXPECT_EQ(RespondErrorCode(&server, CreateRequest("s1")),
            "Already exists");

  RespondOk(&server, "{\"op\":\"drop_session\",\"session\":\"s1\"}");
  const JsonValue empty = RespondOk(&server, "{\"op\":\"list_sessions\"}");
  EXPECT_TRUE(empty.Find("sessions")->array().empty());
}

TEST(ProtocolTest, ErrorPaths) {
  Server server;
  // Malformed JSON and non-object requests.
  EXPECT_EQ(RespondErrorCode(&server, "not json"), "Parse error");
  EXPECT_EQ(RespondErrorCode(&server, "[1,2]"), "Invalid argument");
  // Blank and comment lines produce no response at all.
  EXPECT_EQ(server.HandleLine(""), "");
  EXPECT_EQ(server.HandleLine("  # scripted-client comment"), "");
  // Unknown op / missing op.
  EXPECT_EQ(RespondErrorCode(&server, "{\"op\":\"frobnicate\"}"),
            "Invalid argument");
  EXPECT_EQ(RespondErrorCode(&server, "{\"id\":9}"), "Invalid argument");
  // Ops against a session that does not exist.
  EXPECT_EQ(RespondErrorCode(
                &server,
                "{\"op\":\"q2\",\"session\":\"ghost\",\"val_indices\":[0]}"),
            "Not found");
  // Malformed CSV → structured error (the Status-propagation satellite).
  EXPECT_EQ(
      RespondErrorCode(&server,
                       "{\"op\":\"create_session\",\"session\":\"c\","
                       "\"source\":\"csv\",\"csv_text\":\"a,b\\n1\",\"label\":"
                       "\"b\"}"),
      "Parse error");
  // CSV with a label column that is not in the schema.
  EXPECT_EQ(
      RespondErrorCode(&server,
                       "{\"op\":\"create_session\",\"session\":\"c\","
                       "\"source\":\"csv\",\"csv_text\":\"a,b\\n1,2\","
                       "\"label\":\"zzz\"}"),
      "Not found");
  // Bad kernel, bad k, bad source.
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"create_session\",\"session\":\"x\","
                             "\"kernel\":\"manhattan\"}"),
            "Invalid argument");
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"create_session\",\"session\":\"x\","
                             "\"source\":\"warehouse\"}"),
            "Invalid argument");

  RespondOk(&server, CreateRequest("s"));
  // k beyond the engine cap flows back as InvalidArgument from
  // CleaningSession::Create, not a CP_CHECK abort.
  EXPECT_EQ(
      RespondErrorCode(
          &server,
          StrFormat("{\"op\":\"create_session\",\"session\":\"big_k\","
                    "\"source\":\"synthetic\",\"train_rows\":40,"
                    "\"val_size\":8,\"test_size\":8,\"k\":%d}",
                    FastQ2::kMaxK + 1)),
      "Invalid argument");
  // Point with the wrong dimension, on every per-point read op.
  for (const char* op :
       {"q2", "predict", "certify", "explain", "why_certified"}) {
    EXPECT_EQ(RespondErrorCode(
                  &server, StrFormat("{\"op\":\"%s\",\"session\":\"s\","
                                     "\"points\":[[1.0,2.0]]}",
                                     op)),
              "Invalid argument")
        << op;
  }
  // val_index out of range.
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"q2\",\"session\":\"s\","
                             "\"val_indices\":[999]}"),
            "Out of range");
  // Both or neither point selector.
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"q2\",\"session\":\"s\"}"),
            "Invalid argument");
  // Wrong parameter type.
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"clean_step\",\"session\":\"s\","
                             "\"steps\":\"two\"}"),
            "Invalid argument");
  // Integer parameters must be exact in-range integers — no silent
  // truncation (4294967299 would alias to k=3 via int32 wraparound), no
  // fractional values, no float→int UB on huge magnitudes.
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"create_session\",\"session\":\"w\","
                             "\"source\":\"synthetic\",\"k\":4294967299}"),
            "Out of range");
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"clean_step\",\"session\":\"s\","
                             "\"steps\":1.5}"),
            "Invalid argument");
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"create_session\",\"session\":\"w\","
                             "\"source\":\"synthetic\",\"seed\":1e300}"),
            "Invalid argument");
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"q2\",\"session\":\"s\","
                             "\"val_indices\":[1e300]}"),
            "Invalid argument");
  EXPECT_EQ(RespondErrorCode(&server,
                             "{\"op\":\"q2\",\"session\":\"s\","
                             "\"val_indices\":[-1]}"),
            "Invalid argument");
}

TEST(ProtocolTest, CreateSpecsThatUsedToAbortAnswerAndServerLivesOn) {
  Server server;
  // Each of these once aborted the process: k reached feature importance's
  // KNN before any check, and a repeated CSV header name reached Schema's
  // uniqueness CP_CHECK.
  for (const char* line :
       {"{\"op\":\"create_session\",\"session\":\"x\",\"source\":"
        "\"paper\",\"dataset\":\"BabyProduct\",\"train_rows\":20,"
        "\"val_size\":5,\"test_size\":5,\"k\":0}",
        "{\"op\":\"create_session\",\"session\":\"x\",\"source\":"
        "\"paper\",\"dataset\":\"BabyProduct\",\"train_rows\":20,"
        "\"val_size\":5,\"test_size\":5,\"k\":500}",
        "{\"op\":\"create_session\",\"session\":\"x\",\"source\":"
        "\"synthetic\",\"train_rows\":10,\"val_size\":5,\"test_size\":5,"
        "\"k\":11}",
        "{\"op\":\"create_session\",\"session\":\"x\",\"source\":"
        "\"csv\",\"csv_text\":\"a,a\\n1,2\\n3,4\\n\",\"label\":\"a\"}"}) {
    EXPECT_EQ(RespondErrorCode(&server, line), "Invalid argument") << line;
    const JsonValue pong = RespondOk(&server, "{\"op\":\"ping\"}");
    EXPECT_TRUE(pong.is_object()) << line;
  }
  const JsonValue listed = RespondOk(&server, "{\"op\":\"list_sessions\"}");
  EXPECT_TRUE(listed.Find("sessions")->array().empty());
}

TEST(ProtocolTest, NonFinitePointsAnswerInvalidArgumentAndServerLivesOn) {
  Server server;
  RespondOk(&server, CreateRequest("s"));
  // 1e999 parses to infinity; 1e308 is finite but its square is not, so
  // the point's squared norm overflows. Neither reaches a kernel.
  for (const char* point :
       {"[1e999,0,0,0]", "[0,0,-1e999,0]", "[1e308,0,0,0]",
        "[1e200,1e200,1e200,1e200]"}) {
    for (const char* op :
         {"q2", "predict", "certify", "explain", "why_certified"}) {
      EXPECT_EQ(RespondErrorCode(
                    &server, StrFormat("{\"op\":\"%s\",\"session\":\"s\","
                                       "\"points\":[%s]}",
                                       op, point)),
                "Invalid argument")
          << op << " " << point;
      const JsonValue pong = RespondOk(&server, "{\"op\":\"ping\"}");
      EXPECT_TRUE(pong.is_object()) << op << " " << point;
    }
  }
  // Large but finite squared norms are still answered.
  for (const char* op :
       {"q2", "predict", "certify", "explain", "why_certified"}) {
    const JsonValue answered = RespondOk(
        &server, StrFormat("{\"op\":\"%s\",\"session\":\"s\","
                           "\"points\":[[1e150,-1e150,1e150,0]]}",
                           op));
    ASSERT_NE(answered.Find("results"), nullptr) << op;
    EXPECT_EQ(answered.Find("results")->array().size(), 1u) << op;
  }
}

TEST(ProtocolTest, ServedQueriesBitMatchDirectLibraryCalls) {
  NegativeEuclideanKernel kernel;
  const PreparedExperiment reference = MakeReference(kernel);

  Server server;
  RespondOk(&server, CreateRequest("s"));

  // Q2 for every validation point must reproduce the direct FastQ2
  // fractions bit-for-bit after the JSON round-trip.
  FastQ2 direct(&reference.task.incomplete, kK);
  for (int v = 0; v < kVal; ++v) {
    const JsonValue result = RespondOk(
        &server, StrFormat("{\"op\":\"q2\",\"session\":\"s\","
                           "\"val_indices\":[%d]}",
                           v));
    const std::vector<double> got =
        NumberArray(*result.Find("results")->array()[0].Find("probs"));
    direct.SetTestPoint(reference.task.val_x[static_cast<size_t>(v)],
                        kernel);
    const std::vector<double> want = direct.Fractions();
    ASSERT_EQ(got.size(), want.size());
    for (size_t y = 0; y < want.size(); ++y) {
      EXPECT_EQ(got[y], want[y]) << "val point " << v << " label " << y;
    }
  }

  // Certify must clean the same tuples in the same order and certify the
  // same label as the direct call.
  CertifyOptions certify_options;
  certify_options.k = kK;
  for (int v = 0; v < 4; ++v) {
    const JsonValue result = RespondOk(
        &server, StrFormat("{\"op\":\"certify\",\"session\":\"s\","
                           "\"val_indices\":[%d]}",
                           v));
    const JsonValue& one = result.Find("results")->array()[0];
    const auto want = CertifyTestPoint(
        reference.task, reference.task.val_x[static_cast<size_t>(v)], kernel,
        certify_options);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(one.Find("certified")->bool_value(), want.value().certified);
    EXPECT_EQ(static_cast<int>(one.Find("label")->number_value()),
              want.value().certain_label);
    const std::vector<double> cleaned = NumberArray(*one.Find("cleaned"));
    ASSERT_EQ(cleaned.size(), want.value().cleaned.size());
    for (size_t i = 0; i < cleaned.size(); ++i) {
      EXPECT_EQ(static_cast<int>(cleaned[i]), want.value().cleaned[i]);
    }
  }
}

TEST(ProtocolTest, CleanStepsMatchDirectSessionAndInvalidateCache) {
  NegativeEuclideanKernel kernel;
  const PreparedExperiment reference = MakeReference(kernel);
  CpCleanOptions clean_options;
  clean_options.k = kK;
  clean_options.track_test_accuracy = false;
  CleaningSession direct(&reference.task, &kernel, clean_options);

  Server server;
  RespondOk(&server, CreateRequest("s"));

  // Interleave: q2 on a fixed point, one cleaning step, q2 again — across
  // several rounds. Every answer must match the direct session's state,
  // and the second q2 of each round must be a cache miss (version moved)
  // while an immediate repeat hits.
  FastQ2 direct_q2(&direct.working(), kK);
  uint64_t expected_hits = 0;
  uint64_t expected_invalidations = 0;
  for (int round = 0; round < 3; ++round) {
    // Round 0's first q2 is a plain miss; later rounds' first q2 finds the
    // entry cached before the cleaning step, sees the bumped version, and
    // drops it — the invalidation the cache must count.
    if (round > 0) ++expected_invalidations;
    for (const int repeat : {0, 1}) {
      const JsonValue result = RespondOk(
          &server,
          "{\"op\":\"q2\",\"session\":\"s\",\"val_indices\":[0]}");
      if (repeat == 1) ++expected_hits;
      direct_q2.SetTestPoint(reference.task.val_x[0], kernel);
      const std::vector<double> want = direct_q2.Fractions();
      const std::vector<double> got =
          NumberArray(*result.Find("results")->array()[0].Find("probs"));
      ASSERT_EQ(got.size(), want.size());
      for (size_t y = 0; y < want.size(); ++y) {
        EXPECT_EQ(got[y], want[y]) << "round " << round;
      }
    }

    const JsonValue step = RespondOk(
        &server, "{\"op\":\"clean_step\",\"session\":\"s\",\"steps\":1}");
    const int direct_cleaned = direct.StepGreedy();
    ASSERT_EQ(step.Find("cleaned")->array().size(), 1u) << "round " << round;
    EXPECT_EQ(
        static_cast<int>(step.Find("cleaned")->array()[0].number_value()),
        direct_cleaned);
    EXPECT_EQ(step.Find("frac_val_certain")->number_value(),
              direct.FracValCertain());
  }

  const JsonValue stats = RespondOk(
      &server, "{\"op\":\"stats\",\"session\":\"s\"}");
  const JsonValue* cache = stats.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("hits")->number_value(),
            static_cast<double>(expected_hits));
  EXPECT_EQ(cache->Find("invalidations")->number_value(),
            static_cast<double>(expected_invalidations));
  EXPECT_GT(expected_hits, 0u);
}

TEST(ProtocolTest, CleanRunReachesAllCertainLikeDirectLoop) {
  NegativeEuclideanKernel kernel;
  const PreparedExperiment reference = MakeReference(kernel);
  CpCleanOptions clean_options;
  clean_options.k = kK;
  clean_options.track_test_accuracy = false;
  CleaningSession direct(&reference.task, &kernel, clean_options);
  std::vector<int> want_order;
  while (true) {
    const int cleaned = direct.StepGreedy();
    if (cleaned < 0) break;
    want_order.push_back(cleaned);
  }

  Server server;
  RespondOk(&server, CreateRequest("s"));
  const JsonValue run = RespondOk(
      &server, "{\"op\":\"clean_run\",\"session\":\"s\",\"budget\":-1}");
  const std::vector<double> got_order =
      NumberArray(*run.Find("cleaned"));
  ASSERT_EQ(got_order.size(), want_order.size());
  for (size_t i = 0; i < want_order.size(); ++i) {
    EXPECT_EQ(static_cast<int>(got_order[i]), want_order[i]);
  }
  EXPECT_EQ(run.Find("frac_val_certain")->number_value(),
            direct.FracValCertain());
}

TEST(ProtocolTest, PredictConsistentWithCertify) {
  Server server;
  RespondOk(&server, CreateRequest("s"));
  // A certified point must predict the same certain label.
  const JsonValue certify = RespondOk(
      &server,
      "{\"op\":\"certify\",\"session\":\"s\",\"val_indices\":[0,1,2]}");
  const JsonValue predict = RespondOk(
      &server,
      "{\"op\":\"predict\",\"session\":\"s\",\"val_indices\":[0,1,2]}");
  for (int v = 0; v < 3; ++v) {
    const JsonValue& c = certify.Find("results")->array()[v];
    const JsonValue& p = predict.Find("results")->array()[v];
    if (p.Find("certain")->bool_value()) {
      // Already certain with no cleaning: certify agrees and cleans nothing.
      EXPECT_TRUE(c.Find("certified")->bool_value());
      EXPECT_TRUE(c.Find("cleaned")->array().empty());
      EXPECT_EQ(c.Find("label")->number_value(),
                p.Find("label")->number_value());
    } else {
      EXPECT_EQ(p.Find("label")->number_value(), -1);
    }
  }
}

}  // namespace
}  // namespace cpclean
