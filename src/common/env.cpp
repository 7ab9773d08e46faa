#include "common/env.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

namespace vlacnn {

namespace {

[[noreturn]] void reject(std::string_view source, std::string_view value,
                         const std::string& expected) {
  throw std::runtime_error(std::string(source) + ": expected " + expected +
                           ", got '" + std::string(value) + "'");
}

/// std::from_chars over all of `s`: no leading whitespace, no '+', no
/// trailing characters, and no out-of-range value.
template <class T>
bool parse_whole(std::string_view s, T& out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), out);
  return r.ec == std::errc() && r.ptr == s.data() + s.size();
}

/// `v` in its shortest round-trip spelling, for error messages.
std::string shortest(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

template <class T>
T parse_uint(std::string_view source, std::string_view text, T lo, T hi) {
  T n = 0;
  // from_chars reads a '-' into a signed T: the leading digit rules it out.
  if (text.empty() || text[0] < '0' || text[0] > '9' ||
      !parse_whole(text, n) || n < lo || n > hi) {
    reject(source, text, "a decimal integer in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]");
  }
  return n;
}

template int parse_uint<int>(std::string_view, std::string_view, int, int);
template unsigned parse_uint<unsigned>(std::string_view, std::string_view,
                                       unsigned, unsigned);
template unsigned long parse_uint<unsigned long>(std::string_view,
                                                 std::string_view,
                                                 unsigned long, unsigned long);
template unsigned long long parse_uint<unsigned long long>(
    std::string_view, std::string_view, unsigned long long,
    unsigned long long);

double parse_real(std::string_view source, std::string_view text,
                  RealRange range) {
  double d = 0;
  if (!parse_whole(text, d) || !std::isfinite(d) ||
      !(range.lo_open ? d > range.lo : d >= range.lo) || !(d <= range.hi)) {
    std::string expected = "a finite number";
    if (std::isfinite(range.hi)) {
      expected += std::string(" in ") + (range.lo_open ? "(" : "[") +
                  shortest(range.lo) + ", " + shortest(range.hi) + "]";
    } else if (std::isfinite(range.lo)) {
      expected += (range.lo_open ? " > " : " >= ") + shortest(range.lo);
    }
    reject(source, text, expected);
  }
  return d;
}

EnvWord parse_word(std::string_view source, std::string_view text,
                   std::initializer_list<EnvWord> table) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  std::string words;
  for (const EnvWord& w : table) {
    if (lower == w.word) return w;
    words += words.empty() ? "" : ", ";
    words += w.word;
  }
  reject(source, text, "one of " + words);
}

std::optional<std::string> env_text(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi) {
  const std::optional<std::string> v = env_text(name);
  if (!v) return std::nullopt;
  return parse_uint<std::uint64_t>(name, *v, lo, hi);
}

std::optional<double> env_positive(const char* name) {
  const std::optional<std::string> v = env_text(name);
  if (!v) return std::nullopt;
  return parse_real(name, *v, kPositive);
}

std::optional<int> env_word(const char* name,
                            std::initializer_list<EnvWord> table) {
  const std::optional<std::string> v = env_text(name);
  if (!v) return std::nullopt;
  return parse_word(name, *v, table).value;
}

}  // namespace vlacnn
