// Seeded mutation fuzzing of the four parsers that read untrusted bytes:
// JSON request lines, CSV text, session snapshots and cleaning-log records.
// Every mutated input must come back as a Status (ok or not) without a
// crash or a hang, and what parses must survive its own round trip. The
// iteration counts keep each case to a few seconds in an unoptimised
// build; ctest's per-test timeout turns a hang into a failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "incomplete/cleaning_log.h"
#include "incomplete/serialization.h"
#include "serve/json.h"
#include "tests/fuzz/mutator.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

using fuzz::Mutator;

/// Picks a seed input and mutates it, `iterations` times, handing each
/// result to `check`.
template <typename Check>
void FuzzSeeds(uint64_t seed, int iterations,
               const std::vector<std::string>& seeds,
               const std::vector<std::string>& dictionary, Check check) {
  Mutator mutator(seed);
  for (const std::string& s : seeds) check(s);
  for (int i = 0; i < iterations; ++i) {
    check(mutator.Mutate(seeds[mutator.Below(seeds.size())], dictionary));
  }
}

TEST(ParserFuzzTest, JsonParseDumpRoundTrip) {
  const std::vector<std::string> seeds = {
      R"({"id":1,"op":"ping"})",
      R"({"id":2,"op":"create_session","session":"alpha",)"
      R"("source":"synthetic","train_rows":40,"val_size":10,"seed":5,)"
      R"("noise_sigma":0.3,"missing_rate":0.2,"k":3})",
      R"({"id":5,"op":"predict","session":"alpha",)"
      R"("points":[[0.5,-1.25e-3,3,1e10],[0,0,0,0]]})",
      R"({"s":"esc \" \\ \/ \b\f\n\r\t é 😀",)"
      R"("a":[true,false,null,[],{}],"n":-0.0})",
      R"([[[[[[[[[1]]]]]]]],{"a":{"b":{"c":[1,2,{"d":null}]}}}])",
  };
  const std::vector<std::string> dictionary = {
      "{", "}", "[", "]", ",", ":", "\"", "\\u", "\\ud800", "true", "false",
      "null", "1e999", "-", "\"op\":", "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
  };
  int parsed = 0;
  FuzzSeeds(101, 100000, seeds, dictionary, [&](const std::string& text) {
    const Result<JsonValue> first = ParseJson(text);
    if (!first.ok()) return;
    ++parsed;
    // One Dump normalises (non-finite numbers become null, -0 becomes 0);
    // from there, parse and dump must be a fixed point.
    const std::string dumped = first.value().Dump();
    const Result<JsonValue> second = ParseJson(dumped);
    ASSERT_TRUE(second.ok()) << "input: " << text << "\ndump: " << dumped;
    ASSERT_EQ(second.value().Dump(), dumped) << "input: " << text;
  });
  EXPECT_GT(parsed, 0);
}

TEST(ParserFuzzTest, ReadCsvStringReturnsStatus) {
  const std::vector<std::string> seeds = {
      "a,b,label\n1,2,x\n3,,y\n-4.5,7e2,x\n",
      "name,score,cls\n\"q,uoted\",1.5,a\n\"he said \"\"hi\"\"\",NA,b\n"
      "plain,?,a\n",
      "x1,x2,x3,y\n0.1,null,2,1\nn/a,0.2,3,0\n0.3,0.4,,1\n",
      "only\n1\n2\n",
  };
  const std::vector<std::string> dictionary = {
      ",", "\"", "\"\"", "\n", "\r\n", "NA", "null", "?", "a,a", "1e999",
      "nan",
  };
  int parsed = 0;
  FuzzSeeds(202, 60000, seeds, dictionary, [&](const std::string& text) {
    const Result<Table> table = ReadCsvString(text);
    if (!table.ok()) return;
    ++parsed;
    // A parsed table is well formed enough to write back out.
    const std::string written = WriteCsvString(table.value());
    ASSERT_FALSE(written.empty()) << "input: " << text;
  });
  EXPECT_GT(parsed, 0);
}

TEST(ParserFuzzTest, DeserializeIncompleteDatasetReturnsStatus) {
  std::vector<std::string> seeds;
  for (uint64_t s = 1; s <= 3; ++s) {
    testing_util::RandomDatasetSpec spec;
    spec.num_examples = 4;
    spec.dim = static_cast<int>(s);
    spec.seed = s;
    seeds.push_back(SerializeIncompleteDataset(
        testing_util::MakeRandomDataset(spec),
        {{"spec", {R"({"op":"create_session","k":3})"}},
         {"cleaning", {"0 2"}}}));
  }
  const std::vector<std::string> dictionary = {
      "example ", "section ", "end\n", "\n", " ", "#", "0x1p-3", "-0x1.8p+1",
      "cpclean-incomplete-v3 ",
  };
  int parsed = 0;
  FuzzSeeds(303, 40000, seeds, dictionary, [&](const std::string& text) {
    const Result<DeserializedDataset> first =
        DeserializeIncompleteDataset(text);
    if (!first.ok()) return;
    ++parsed;
    // What parses re-serializes to a document that parses to itself.
    const std::string again = SerializeIncompleteDataset(
        first.value().dataset, first.value().sections);
    const Result<DeserializedDataset> second =
        DeserializeIncompleteDataset(again);
    ASSERT_TRUE(second.ok()) << "input: " << text;
    ASSERT_EQ(SerializeIncompleteDataset(second.value().dataset,
                                         second.value().sections),
              again)
        << "input: " << text;
  });
  EXPECT_GT(parsed, 0);
}

TEST(ParserFuzzTest, DecodeAndReplayCleaningLogReturnsStatus) {
  testing_util::RandomDatasetSpec spec;
  spec.num_examples = 6;
  spec.dim = 2;
  spec.seed = 7;
  const IncompleteDataset base = testing_util::MakeRandomDataset(spec);
  const uint64_t v = base.version();

  MutationRecord fix;
  fix.kind = MutationRecord::Kind::kFix;
  fix.seq = v + 1;
  fix.example = 1;
  fix.candidate = 0;
  MutationRecord replace;
  replace.kind = MutationRecord::Kind::kReplace;
  replace.seq = v + 2;
  replace.example = 2;
  replace.candidates = {{0.5, -1.0}, {0.25, 3.0}};
  MutationRecord add;
  add.kind = MutationRecord::Kind::kAdd;
  add.seq = v + 3;
  add.label = 1;
  add.candidates = {{1.0, 2.0}};
  std::string log;
  for (const MutationRecord& record : {fix, replace, add}) {
    log += EncodeLogRecord(record) + "\n";
  }
  // Bodies without their checksums: mutated, then re-checksummed, so the
  // fuzzer reaches the record parser and the replay, not only the
  // checksum comparison.
  std::string bodies;
  for (const std::string& line : Split(log, '\n')) {
    if (!line.empty()) bodies += line.substr(0, line.rfind(" #")) + "\n";
  }
  const std::vector<std::string> dictionary = {
      "fix ", "replace ", "add ", " ", " #", "0x1p+0", "-0x0p+0", "2147483647",
      "18446744073709551615",
  };
  int replayed = 0;
  FuzzSeeds(404, 40000, {log, bodies}, dictionary,
            [&](const std::string& text) {
    const bool checksummed = text.find(" #") != std::string::npos;
    std::vector<MutationRecord> records;
    for (std::string line : Split(text, '\n')) {
      if (!checksummed) {
        line += StrFormat(" #%016llx",
                          static_cast<unsigned long long>(Fnv1a64(line)));
      }
      const Result<MutationRecord> record = DecodeLogRecord(line);
      if (!record.ok()) continue;
      // A decoded record re-encodes to a line that decodes to the same
      // encoding.
      const std::string encoded = EncodeLogRecord(record.value());
      const Result<MutationRecord> again = DecodeLogRecord(encoded);
      ASSERT_TRUE(again.ok()) << "line: " << line;
      ASSERT_EQ(EncodeLogRecord(again.value()), encoded) << "line: " << line;
      records.push_back(record.value());
    }
    IncompleteDataset dataset = base;
    std::vector<int> fixed;
    if (ReplayCleaningLog(records, v, &dataset, &fixed).ok()) ++replayed;
  });
  EXPECT_GT(replayed, 0);
}

}  // namespace
}  // namespace cpclean
