#ifndef CPCLEAN_COMMON_STRING_UTIL_H_
#define CPCLEAN_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace cpclean {

/// Splits `text` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins the pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view text);

/// True when `text` begins with / ends with the given prefix / suffix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses a double / int; rejects trailing garbage and empty input.
Result<double> ParseDouble(std::string_view text);
Result<int> ParseInt(std::string_view text);

/// Parses an unsigned 64-bit integer in `base` (10 or 16) from digits
/// only: no sign, whitespace, prefix, or trailing bytes. Empty input and
/// overflow are ParseErrors. The strict parser for untrusted file bytes.
Result<uint64_t> ParseUint64(std::string_view text, int base);

/// Reads an integer environment variable, falling back when unset or
/// malformed. Used by the experiment harnesses for scale knobs.
int GetEnvInt(const char* name, int fallback);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace cpclean

#endif  // CPCLEAN_COMMON_STRING_UTIL_H_
