#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cpclean {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

Result<double> ParseDouble(std::string_view text) {
  std::string buf(StripWhitespace(text));
  if (buf.empty()) {
    return Status::ParseError("empty string is not a double");
  }
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("not a double: '" + buf + "'");
  }
  return value;
}

Result<int> ParseInt(std::string_view text) {
  std::string buf(StripWhitespace(text));
  if (buf.empty()) {
    return Status::ParseError("empty string is not an int");
  }
  char* end = nullptr;
  const long value = std::strtol(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("not an int: '" + buf + "'");
  }
  if (value < INT32_MIN || value > INT32_MAX) {
    return Status::OutOfRange("int out of range: '" + buf + "'");
  }
  return static_cast<int>(value);
}

Result<uint64_t> ParseUint64(std::string_view text, int base) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  // from_chars takes no whitespace, '+', or base prefix, and no '-' for
  // unsigned targets; anything left unconsumed is trailing garbage.
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value, base);
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    return Status::ParseError("not an unsigned integer: '" +
                              std::string(text) + "'");
  }
  return value;
}

int GetEnvInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const Result<int> parsed = ParseInt(raw);
  return parsed.ok() ? parsed.value() : fallback;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (size > 0) {
    out.resize(static_cast<size_t>(size));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace cpclean
