#include "incomplete/serialization.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::RandomDatasetSpec;

bool DatasetsEqual(const IncompleteDataset& a, const IncompleteDataset& b) {
  if (a.num_examples() != b.num_examples() || a.num_labels() != b.num_labels() ||
      a.dim() != b.dim()) {
    return false;
  }
  for (int i = 0; i < a.num_examples(); ++i) {
    if (a.label(i) != b.label(i)) return false;
    if (a.num_candidates(i) != b.num_candidates(i)) return false;
    for (int j = 0; j < a.num_candidates(i); ++j) {
      if (a.candidate(i, j) != b.candidate(i, j)) return false;
    }
  }
  return true;
}

/// Serializes `dataset` with no sections and parses it back.
IncompleteDataset RoundTrip(const IncompleteDataset& dataset) {
  return DeserializeIncompleteDataset(SerializeIncompleteDataset(dataset, {}))
      .value()
      .dataset;
}

TEST(SerializationTest, ExactRoundTrip) {
  RandomDatasetSpec spec;
  spec.num_examples = 14;
  spec.max_candidates = 4;
  spec.num_labels = 3;
  spec.dim = 5;
  spec.seed = 77;
  const IncompleteDataset original = MakeRandomDataset(spec);
  EXPECT_TRUE(DatasetsEqual(original, RoundTrip(original)));
}

TEST(SerializationTest, HexFloatsRoundTripBitExactly) {
  IncompleteDataset dataset(2);
  // Values chosen to be unrepresentable in short decimal.
  CP_CHECK(dataset.AddCleanExample({1.0 / 3.0, -2.0e-17}, 0).ok());
  CP_CHECK(dataset
               .AddExample({{{0.1, 0.2}, {3.3333333333333331, 1e300}}, 1})
               .ok());
  EXPECT_TRUE(DatasetsEqual(dataset, RoundTrip(dataset)));
}

TEST(SerializationTest, CommentsAndBlankLinesIgnored) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({1.5}, 1).ok());
  std::string text = SerializeIncompleteDataset(dataset, {{"s", {"x"}}});
  text = "# a comment\n\n" + text + "\n# trailing\n";
  EXPECT_TRUE(DeserializeIncompleteDataset(text).ok());
}

TEST(SerializationTest, RejectsMalformedInput) {
  EXPECT_FALSE(DeserializeIncompleteDataset("").ok());
  EXPECT_FALSE(DeserializeIncompleteDataset("wrong-magic 2 1 0\n").ok());
  // Short header (the version is missing).
  EXPECT_FALSE(
      DeserializeIncompleteDataset("cpclean-incomplete-v3 2 1\n").ok());
  // Truncated candidate block.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v3 2 1 0\nexample 0 2\n0x1p+0\n")
                   .ok());
  // Wrong candidate arity.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v3 2 2 0\nexample 0 1\n0x1p+0\n")
                   .ok());
  // Label out of range is caught by AddExample.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v3 2 1 0\nexample 5 1\n0x1p+0\n")
                   .ok());
}

TEST(SerializationTest, RejectsRetiredV1AndV2Headers) {
  // Well-formed documents in the retired formats: nothing writes them,
  // so they parse as bad headers.
  for (const char* text :
       {"cpclean-incomplete-v1 2 1\nexample 0 1\n0x1p+0\n",
        "cpclean-incomplete-v2 2 1\nexample 0 1\n0x1p+0\nsection s\nx\n"
        "end\n"}) {
    const Result<DeserializedDataset> parsed =
        DeserializeIncompleteDataset(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().message().find("bad header"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(SerializationTest, RejectsNonDigitHeaderVersion) {
  for (const char* version : {"-1", "+1", "1x", "18446744073709551616"}) {
    EXPECT_FALSE(DeserializeIncompleteDataset(
                     StrFormat("cpclean-incomplete-v3 2 1 %s\n", version))
                     .ok())
        << version;
  }
}

TEST(SerializationTest, RoundTripsDatasetSectionsAndVersion) {
  RandomDatasetSpec spec;
  spec.num_examples = 9;
  spec.max_candidates = 3;
  spec.num_labels = 2;
  spec.dim = 4;
  spec.seed = 123;
  IncompleteDataset original = MakeRandomDataset(spec);
  original.FixExample(0, 0);
  const std::vector<SerializedSection> sections = {
      {"spec", {"{\"session\":\"a\",\"k\":3}"}},
      {"cleaning", {"cleaned 3 5 1 7"}},
  };
  const std::string text = SerializeIncompleteDataset(original, sections);
  const DeserializedDataset parsed =
      DeserializeIncompleteDataset(text).value();
  EXPECT_TRUE(DatasetsEqual(original, parsed.dataset));
  EXPECT_TRUE(BitIdentical(original, parsed.dataset));
  EXPECT_EQ(parsed.dataset.version(), original.version());
  ASSERT_EQ(parsed.sections.size(), 2u);
  EXPECT_EQ(parsed.sections[0].name, "spec");
  ASSERT_EQ(parsed.sections[0].lines.size(), 1u);
  EXPECT_EQ(parsed.sections[0].lines[0], sections[0].lines[0]);
  EXPECT_EQ(parsed.sections[1].name, "cleaning");
  EXPECT_EQ(parsed.sections[1].lines, sections[1].lines);
}

TEST(SerializationTest, NoSectionsParsesToNone) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({2.25}, 1).ok());
  const DeserializedDataset parsed =
      DeserializeIncompleteDataset(SerializeIncompleteDataset(dataset, {}))
          .value();
  EXPECT_TRUE(DatasetsEqual(dataset, parsed.dataset));
  EXPECT_TRUE(parsed.sections.empty());
}

TEST(SerializationTest, RejectsMalformedSections) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({1.0}, 0).ok());
  const std::string base = SerializeIncompleteDataset(dataset, {});
  // Unterminated section.
  EXPECT_FALSE(
      DeserializeIncompleteDataset(base + "section hanging\npayload\n").ok());
  // An example block after a section violates the trailer layout.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   base + "section s\nx\nend\nexample 0 1\n0x1p+0\n")
                   .ok());
}

TEST(SerializationTest, BitIdenticalDetectsValueAndShapeDrift) {
  IncompleteDataset a(2);
  CP_CHECK(a.AddExample({{{1.0}, {2.0}}, 1}).ok());
  IncompleteDataset b = a;
  EXPECT_TRUE(BitIdentical(a, b));
  b.FixExample(0, 0);
  EXPECT_FALSE(BitIdentical(a, b));  // candidate-count drift
  IncompleteDataset c(2);
  CP_CHECK(c.AddExample({{{1.0}, {2.0000000000000004}}, 1}).ok());
  EXPECT_FALSE(BitIdentical(a, c));  // one-ulp value drift
}

}  // namespace
}  // namespace cpclean
