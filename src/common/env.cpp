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

[[noreturn]] void reject(const char* name, const std::string& value,
                         const std::string& expected) {
  throw std::runtime_error(std::string(name) + ": expected " + expected +
                           ", got '" + value + "'");
}

/// std::from_chars over all of `s`: no leading whitespace, no '+', no '-'
/// for an unsigned T, no trailing characters, and no out-of-range value.
template <class T>
bool parse_whole(const std::string& s, T& out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), out);
  return r.ec == std::errc() && r.ptr == s.data() + s.size();
}

}  // namespace

std::optional<std::string> env_text(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi) {
  const std::optional<std::string> v = env_text(name);
  if (!v) return std::nullopt;
  std::uint64_t n = 0;
  if (!parse_whole(*v, n) || n < lo || n > hi) {
    reject(name, *v, "a decimal integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
  }
  return n;
}

std::optional<double> env_positive(const char* name) {
  const std::optional<std::string> v = env_text(name);
  if (!v) return std::nullopt;
  double d = 0;
  if (!parse_whole(*v, d) || !std::isfinite(d) || !(d > 0)) {
    reject(name, *v, "a finite number > 0");
  }
  return d;
}

std::optional<int> env_word(const char* name,
                            std::initializer_list<EnvWord> table) {
  const std::optional<std::string> v = env_text(name);
  if (!v) return std::nullopt;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  std::string words;
  for (const EnvWord& w : table) {
    if (lower == w.word) return w.value;
    words += words.empty() ? "" : ", ";
    words += w.word;
  }
  reject(name, *v, "one of " + words);
}

}  // namespace vlacnn
