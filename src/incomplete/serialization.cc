#include "incomplete/serialization.h"

#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace cpclean {

namespace {
constexpr char kMagic[] = "cpclean-incomplete-v3";

/// True for a payload line the line-oriented framing can carry verbatim.
bool ValidSectionLine(const std::string& line) {
  const std::string_view stripped = StripWhitespace(line);
  return !stripped.empty() && stripped.front() != '#' && stripped != "end" &&
         stripped.size() == line.size();
}

/// True for a section name the `section <name>` line can carry.
bool ValidSectionName(const std::string& name) {
  return !name.empty() && name.find_first_of(" \t\r\n") == std::string::npos;
}

}  // namespace

std::string SerializeIncompleteDataset(
    const IncompleteDataset& dataset,
    const std::vector<SerializedSection>& sections) {
  std::string out = StrFormat(
      "%s %d %d %llu\n", kMagic, dataset.num_labels(), dataset.dim(),
      static_cast<unsigned long long>(dataset.version()));
  for (int i = 0; i < dataset.num_examples(); ++i) {
    out += StrFormat("example %d %d\n", dataset.label(i),
                     dataset.num_candidates(i));
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      const auto& x = dataset.candidate(i, j);
      for (size_t d = 0; d < x.size(); ++d) {
        if (d > 0) out += ' ';
        out += StrFormat("%a", x[d]);  // hex float: exact round trip
      }
      out += '\n';
    }
  }
  for (const SerializedSection& section : sections) {
    CP_CHECK(ValidSectionName(section.name));
    out += StrFormat("section %s\n", section.name.c_str());
    for (const std::string& line : section.lines) {
      CP_CHECK(ValidSectionLine(line));
      out += line;
      out += '\n';
    }
    out += "end\n";
  }
  return out;
}

Result<DeserializedDataset> DeserializeIncompleteDataset(
    const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  // Read the next non-empty, non-comment line.
  auto next_line = [&](std::string* out) {
    while (std::getline(stream, *out)) {
      const std::string_view stripped = StripWhitespace(*out);
      if (stripped.empty() || stripped.front() == '#') continue;
      *out = std::string(stripped);
      return true;
    }
    return false;
  };

  if (!next_line(&line)) {
    return Status::ParseError("empty input");
  }
  const std::vector<std::string> header = Split(line, ' ');
  if (header.size() != 4 || header[0] != kMagic) {
    return Status::ParseError("bad header: " + line);
  }
  CP_ASSIGN_OR_RETURN(const int num_labels, ParseInt(header[1]));
  CP_ASSIGN_OR_RETURN(const int dim, ParseInt(header[2]));
  if (num_labels < 1 || dim < 0) {
    return Status::ParseError("invalid header values");
  }
  const Result<uint64_t> stored_version = ParseUint64(header[3], 10);
  if (!stored_version.ok()) {
    return Status::ParseError("bad version in header: " + line);
  }

  DeserializedDataset out;
  out.dataset = IncompleteDataset(num_labels);
  bool in_examples = true;
  while (next_line(&line)) {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() == 2 && fields[0] == "section") {
      in_examples = false;  // sections are a trailer: no examples after
      SerializedSection section;
      section.name = fields[1];
      if (!ValidSectionName(section.name)) {
        return Status::ParseError("bad section name: " + line);
      }
      bool terminated = false;
      while (std::getline(stream, line)) {
        const std::string_view stripped = StripWhitespace(line);
        if (stripped.empty() || stripped.front() == '#') continue;
        if (stripped == "end") {
          terminated = true;
          break;
        }
        section.lines.emplace_back(stripped);
      }
      if (!terminated) {
        return Status::ParseError(
            StrFormat("section \"%s\" missing its end line",
                      section.name.c_str()));
      }
      out.sections.push_back(std::move(section));
      continue;
    }
    if (!in_examples) {
      return Status::ParseError("example block after a section: " + line);
    }
    if (fields.size() != 3 || fields[0] != "example") {
      return Status::ParseError("expected 'example <label> <count>': " + line);
    }
    IncompleteExample example;
    CP_ASSIGN_OR_RETURN(example.label, ParseInt(fields[1]));
    CP_ASSIGN_OR_RETURN(const int count, ParseInt(fields[2]));
    if (count < 1) {
      return Status::ParseError("candidate count must be positive");
    }
    for (int j = 0; j < count; ++j) {
      if (!next_line(&line)) {
        return Status::ParseError("truncated candidate block");
      }
      std::vector<std::string> values = Split(line, ' ');
      if (static_cast<int>(values.size()) != dim) {
        return Status::ParseError(StrFormat(
            "candidate has %d values, expected %d",
            static_cast<int>(values.size()), dim));
      }
      std::vector<double> x;
      x.reserve(values.size());
      for (const std::string& v : values) {
        CP_ASSIGN_OR_RETURN(double parsed, ParseDouble(v));
        x.push_back(parsed);
      }
      example.candidates.push_back(std::move(x));
    }
    CP_RETURN_NOT_OK(out.dataset.AddExample(std::move(example)));
  }
  out.dataset.OverrideVersionForReplay(stored_version.value());
  return out;
}

}  // namespace cpclean
