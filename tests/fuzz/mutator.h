// A seeded byte-level mutator for the parser fuzz tests: each call copies a
// seed input and applies a few random edits (bit flips, byte writes and
// inserts, range erases and duplications, dictionary splices, numeric-token
// swaps, truncation). It needs nothing beyond the standard library, and a
// fixed seed replays the same input sequence, so a failure reproduces by
// re-running its test.

#ifndef CPCLEAN_TESTS_FUZZ_MUTATOR_H_
#define CPCLEAN_TESTS_FUZZ_MUTATOR_H_

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace cpclean {
namespace fuzz {

/// Bytes that tend to matter to text parsers: separators, quotes, signs,
/// digits, exponent markers, brackets, escapes and control bytes.
inline const std::string& InterestingBytes() {
  static const std::string bytes =
      std::string(" ,\n\r\t\"#-+.0123456789eExp{}[]:\\") + '\0' + "\x7f\xff";
  return bytes;
}

/// Numeric tokens at the edges of what the parsers accept.
inline const std::vector<std::string>& InterestingNumbers() {
  static const std::vector<std::string> numbers = {
      "-1",         "0",          "-0",
      "1.5",        "2147483647", "2147483648",
      "-2147483649", "4294967299", "9007199254740993",
      "18446744073709551616",     "1e999",
      "-1e999",     "1e308",      "1e-320",
      "nan",        "inf",        "0x1p+0",
      "1e",         "--1",        "00",
      "1.",         ".5"};
  return numbers;
}

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  /// A value in [0, n); 0 when n is 0.
  size_t Below(size_t n) {
    return n == 0 ? 0 : static_cast<size_t>(rng_.NextUint64(n));
  }

  /// `input` with one to four random edits. `dictionary` holds
  /// format-specific tokens (keywords, field names) to splice in.
  std::string Mutate(const std::string& input,
                     const std::vector<std::string>& dictionary) {
    std::string out = input;
    const size_t edits = 1 + Below(4);
    for (size_t e = 0; e < edits; ++e) Edit(&out, dictionary);
    return out;
  }

 private:
  char RandomByte() { return static_cast<char>(Below(256)); }
  char InterestingByte() {
    const std::string& bytes = InterestingBytes();
    return bytes[Below(bytes.size())];
  }

  void Edit(std::string* s, const std::vector<std::string>& dictionary) {
    const size_t pos = Below(s->size() + 1);
    switch (Below(9)) {
      case 0:  // flip one bit
        if (pos < s->size()) (*s)[pos] ^= static_cast<char>(1u << Below(8));
        break;
      case 1:  // overwrite a byte
        if (pos < s->size()) {
          (*s)[pos] = Below(2) == 0 ? RandomByte() : InterestingByte();
        }
        break;
      case 2:  // insert a byte
        s->insert(s->begin() + static_cast<std::ptrdiff_t>(pos),
                  Below(2) == 0 ? RandomByte() : InterestingByte());
        break;
      case 3:  // erase a short range
        if (pos < s->size()) s->erase(pos, 1 + Below(8));
        break;
      case 4: {  // duplicate a range somewhere else
        if (s->empty()) break;
        const size_t from = Below(s->size());
        const std::string chunk = s->substr(from, 1 + Below(32));
        s->insert(Below(s->size() + 1), chunk);
        break;
      }
      case 5:  // splice a dictionary token
        if (!dictionary.empty()) {
          s->insert(pos, dictionary[Below(dictionary.size())]);
        }
        break;
      case 6: {  // swap the numeric token under pos for an edge value
        size_t begin = pos;
        while (begin < s->size() &&
               std::isdigit(static_cast<unsigned char>((*s)[begin])) == 0) {
          ++begin;
        }
        if (begin >= s->size()) break;
        size_t end = begin;
        while (end < s->size() &&
               (std::isalnum(static_cast<unsigned char>((*s)[end])) != 0 ||
                (*s)[end] == '.' || (*s)[end] == '-' || (*s)[end] == '+')) {
          ++end;
        }
        const std::vector<std::string>& numbers = InterestingNumbers();
        s->replace(begin, end - begin, numbers[Below(numbers.size())]);
        break;
      }
      case 7:  // truncate
        s->resize(pos);
        break;
      default: {  // repeat one byte a few times
        if (pos >= s->size()) break;
        s->insert(pos, 1 + Below(16), (*s)[pos]);
        break;
      }
    }
  }

  Rng rng_;
};

}  // namespace fuzz
}  // namespace cpclean

#endif  // CPCLEAN_TESTS_FUZZ_MUTATOR_H_
