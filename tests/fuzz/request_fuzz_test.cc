// Request-level fuzzing through the stdio transport: the read and clean
// lines of the committed smoke script are mutated and replayed, in
// batches, against an in-process Server holding the script's two
// sessions. Each batch must get exactly one response line per request
// line, every response must be a JSON object with an "ok" field, and a
// ping sent last must still answer. The create_session lines are replayed
// unmutated: their size fields pick how much work a session costs, which
// is a separate resource question.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "serve/json.h"
#include "serve/server.h"
#include "tests/fuzz/mutator.h"

namespace cpclean {
namespace {

/// The smoke script's request lines, comments and blanks dropped.
std::vector<std::string> SmokeLines() {
  std::ifstream in(std::string(CPCLEAN_SOURCE_DIR) +
                   "/tests/serve/smoke_queries.jsonl");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

std::string OpOf(const std::string& line) {
  const Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed.value().is_object()) return "";
  const JsonValue* op = parsed.value().Find("op");
  return op != nullptr && op->is_string() ? op->string_value() : "";
}

/// Whether the server answers `line` at all (blank and comment lines get
/// no response).
bool Answered(const std::string& line) {
  const size_t begin = line.find_first_not_of(" \t\r");
  return begin != std::string::npos && line[begin] != '#';
}

/// Values of every JSON type, at the edges the request parameters check.
const std::vector<std::string>& EdgeValues() {
  static const std::vector<std::string> values = {
      "-1",   "0",       "1",          "3",          "2147483648",
      "1e300", "1.5",    "\"alpha\"",  "\"beta\"",   "\"\"",
      "true", "null",    "[]",         "{}",         "[0]",
      "[-1]", "[1.5]",   "[0,1,2,3,4,5,6,7,8,9]",   "[[0,0,0,0]]",
      "[[1e150,0,0,1]]", "[[1e200,1e200,0,0]]",     "[[1,2]]",
      "[[0,0,0,0,0,0,0,0,0,0,0,0]]", "[[\"a\",0,0,0]]"};
  return values;
}

/// Rewrites one member of a request object: sets an existing or new key
/// to an edge value, swaps the op for another fuzzed op, or drops a key.
std::string MutateMembers(const std::string& line,
                          const std::vector<std::string>& ops,
                          fuzz::Mutator* mutator) {
  const Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed.value().is_object()) return line;
  static const std::vector<std::string> kKeys = {
      "op",     "session", "points", "val_indices", "steps",
      "budget", "max_cleaned", "id"};
  const std::string key = kKeys[mutator->Below(kKeys.size())];
  JsonValue out = JsonValue::MakeObject();
  const size_t action = mutator->Below(4);
  for (const JsonValue::Member& member : parsed.value().object()) {
    if (action == 0 && member.first == key) continue;  // drop it
    out.Set(member.first, member.second);
  }
  if (action == 1 && key == "op") {
    out.Set("op", JsonValue(ops[mutator->Below(ops.size())]));
  } else if (action != 0) {
    const std::vector<std::string>& values = EdgeValues();
    out.Set(key, ParseJson(values[mutator->Below(values.size())]).value());
  }
  return out.Dump();
}

TEST(RequestFuzzTest, MutatedSmokeLinesGetOneResponseEachAndPingLives) {
  const std::vector<std::string> ops = {
      "q2",    "predict",    "certify",       "explain",   "stats",
      "clean_step", "clean_run", "why_certified", "list_sessions"};
  std::vector<std::string> creates;
  std::vector<std::string> seeds;
  for (const std::string& line : SmokeLines()) {
    const std::string op = OpOf(line);
    if (op == "create_session" &&
        line.find("\"train_rows\"") != std::string::npos) {
      creates.push_back(line);
    } else if (std::find(ops.begin(), ops.end(), op) != ops.end()) {
      seeds.push_back(line);
    }
  }
  ASSERT_EQ(creates.size(), 2u);
  ASSERT_GE(seeds.size(), 10u);
  seeds.push_back(R"({"id":30,"op":"predict","session":"alpha",)"
                  R"("points":[[0.1,-2.5,3e2,0]]})");
  seeds.push_back(R"({"id":31,"op":"clean_run","session":"beta","budget":3})");
  seeds.push_back(R"({"id":32,"op":"certify","session":"alpha",)"
                  R"("val_indices":[1],"max_cleaned":2})");
  const std::vector<std::string> dictionary = {
      "\"points\":[[1e308,0,0,0]]", "\"val_indices\":[", "\"steps\":",
      "\"budget\":-1",              "\"max_cleaned\":",  "\"session\":\"beta\"",
      "[[", "]]", "{}", "null", "\"", ",", "\"op\":\"explain\"",
      "\"op\":\"clean_run\"",
  };

  fuzz::Mutator mutator(505);
  Server server;
  int answered_ok = 0;
  for (int batch = 0; batch < 12; ++batch) {
    // Fresh sessions per batch, so clean lines keep finding dirty rows.
    std::string script = "{\"op\":\"drop_session\",\"session\":\"alpha\"}\n"
                         "{\"op\":\"drop_session\",\"session\":\"beta\"}\n";
    for (const std::string& create : creates) script += create + "\n";
    int expected = 2 + static_cast<int>(creates.size());
    for (int i = 0; i < 60; ++i) {
      const std::string& seed = seeds[mutator.Below(seeds.size())];
      const std::string mutated =
          mutator.Below(2) == 0 ? mutator.Mutate(seed, dictionary)
                                : MutateMembers(seed, ops, &mutator);
      for (const std::string& line : Split(mutated, '\n')) {
        // Keep the sessions (and the transport) alive through the batch.
        const std::string op = OpOf(line);
        if (op == "create_session" || op == "shutdown" ||
            op == "drop_session") {
          continue;
        }
        script += line + "\n";
        if (Answered(line)) ++expected;
      }
    }
    script += "{\"op\":\"ping\",\"id\":\"last\"}\n";
    ++expected;

    std::istringstream in(script);
    std::ostringstream out;
    server.RunStdio(in, out);
    const std::vector<std::string> responses = Split(out.str(), '\n');
    // Split leaves one empty piece after the final newline.
    ASSERT_EQ(static_cast<int>(responses.size()), expected + 1)
        << "batch " << batch << " script:\n" << script;
    for (int r = 0; r < expected; ++r) {
      const Result<JsonValue> response = ParseJson(responses[r]);
      ASSERT_TRUE(response.ok()) << responses[r];
      const JsonValue* ok = response.value().Find("ok");
      ASSERT_TRUE(ok != nullptr && ok->is_bool()) << responses[r];
      if (ok->bool_value()) ++answered_ok;
    }
    EXPECT_EQ(responses[expected - 1],
              R"({"id":"last","proto":1,"ok":true,"result":{}})");
  }
  // The mutations leave many requests valid; a run where none succeeds
  // would be fuzzing only the error paths.
  EXPECT_GT(answered_ok, 150);
}

}  // namespace
}  // namespace cpclean
