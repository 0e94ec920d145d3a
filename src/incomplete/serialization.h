#ifndef CPCLEAN_INCOMPLETE_SERIALIZATION_H_
#define CPCLEAN_INCOMPLETE_SERIALIZATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "incomplete/incomplete_dataset.h"

namespace cpclean {

/// Plain-text snapshot of an incomplete dataset plus named sections of
/// opaque payload — the base file the session store writes. Format
/// (line-oriented, '#' comments and blank lines allowed):
///
///   cpclean-incomplete-v3 <num_labels> <dim> <version>
///   example <label> <num_candidates>
///   <v0> <v1> ... <v_dim-1>           # one line per candidate
///   ...
///   section <name>
///   <payload line>
///   ...
///   end
///
/// Doubles round-trip exactly (hex float encoding). `<version>` is the
/// dataset's `version()`, the sequence anchor of the append-only cleaning
/// log: a `<name>.cplog` record with seq > version is newer than the base
/// and is replayed on rehydration. Sections form a trailer (no example
/// after the first one); payload lines are stored verbatim and must be
/// non-empty, must not start with '#', and must not equal "end".

/// One named section of a snapshot.
struct SerializedSection {
  std::string name;
  std::vector<std::string> lines;
};

/// Serializes `dataset` plus `sections`. CP_CHECK-fails on section names
/// or lines that violate the framing rules above.
std::string SerializeIncompleteDataset(
    const IncompleteDataset& dataset,
    const std::vector<SerializedSection>& sections);

struct DeserializedDataset {
  /// Carries the stored version (`OverrideVersionForReplay`).
  IncompleteDataset dataset;
  std::vector<SerializedSection> sections;
};

/// Parses a document produced by `SerializeIncompleteDataset`; any other
/// header (including the retired v1/v2 formats) is a ParseError.
Result<DeserializedDataset> DeserializeIncompleteDataset(
    const std::string& text);

}  // namespace cpclean

#endif  // CPCLEAN_INCOMPLETE_SERIALIZATION_H_
