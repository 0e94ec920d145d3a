#include "data/csv.h"

#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace cpclean {

namespace {

/// Splits one CSV record honoring double quotes.
Result<std::vector<std::string>> SplitCsvLine(const std::string& line,
                                              char delim) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quote in CSV record: " + line);
  }
  fields.push_back(std::move(current));
  return fields;
}

bool IsNullToken(const std::string& field, const CsvOptions& options) {
  const std::string stripped = ToLower(StripWhitespace(field));
  for (const auto& token : options.null_tokens) {
    if (stripped == token) return true;
  }
  return false;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (StripWhitespace(line).empty()) continue;
    CP_ASSIGN_OR_RETURN(auto fields, SplitCsvLine(line, options.delimiter));
    records.push_back(std::move(fields));
  }
  if (records.empty()) {
    return Status::ParseError("CSV input has no records");
  }

  std::vector<std::string> header;
  size_t first_data = 0;
  if (options.has_header) {
    header = records[0];
    first_data = 1;
  } else {
    for (size_t c = 0; c < records[0].size(); ++c) {
      header.push_back(StrFormat("col%d", static_cast<int>(c)));
    }
  }
  const size_t width = header.size();
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != width) {
      return Status::ParseError(StrFormat(
          "record %d has %d fields, expected %d", static_cast<int>(r),
          static_cast<int>(records[r].size()), static_cast<int>(width)));
    }
  }

  // Infer column types: numeric iff every non-null cell parses as a double.
  std::vector<ColumnType> types(width, ColumnType::kNumeric);
  for (size_t c = 0; c < width; ++c) {
    bool any_value = false;
    for (size_t r = first_data; r < records.size(); ++r) {
      const std::string& cell = records[r][c];
      if (IsNullToken(cell, options)) continue;
      any_value = true;
      if (!ParseDouble(cell).ok()) {
        types[c] = ColumnType::kCategorical;
        break;
      }
    }
    if (!any_value) types[c] = ColumnType::kCategorical;
  }

  // Schema CP_CHECKs unique names; a header is untrusted input, so a
  // repeated name is reported here instead.
  std::vector<Field> fields;
  for (size_t c = 0; c < width; ++c) {
    std::string name(StripWhitespace(header[c]));
    for (const Field& field : fields) {
      if (field.name == name) {
        return Status::InvalidArgument(StrFormat(
            "duplicate column name \"%s\" in CSV header", name.c_str()));
      }
    }
    fields.push_back({std::move(name), types[c]});
  }
  Table table((Schema(std::move(fields))));
  for (size_t r = first_data; r < records.size(); ++r) {
    std::vector<Value> row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      const std::string& cell = records[r][c];
      if (IsNullToken(cell, options)) {
        row.push_back(Value::Null());
      } else if (types[c] == ColumnType::kNumeric) {
        CP_ASSIGN_OR_RETURN(double v, ParseDouble(cell));
        row.push_back(Value::Numeric(v));
      } else {
        row.push_back(Value::Categorical(std::string(StripWhitespace(cell))));
      }
    }
    CP_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream file(path);
  if (!file) {
    return Status::IoError("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ReadCsvString(buffer.str(), options);
}

namespace {
std::string EscapeCsvField(const std::string& field, char delim) {
  const bool needs_quotes =
      field.find(delim) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}
}  // namespace

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += delimiter;
    out += EscapeCsvField(table.schema().field(c).name, delimiter);
  }
  out += "\n";
  for (int r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delimiter;
      const Value& v = table.at(r, c);
      if (v.is_null()) continue;  // empty field
      out += EscapeCsvField(v.ToString(), delimiter);
    }
    out += "\n";
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream file(path);
  if (!file) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  file << WriteCsvString(table, delimiter);
  if (!file) {
    return Status::IoError("failed writing file: " + path);
  }
  return Status::OK();
}

}  // namespace cpclean
