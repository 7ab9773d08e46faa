// The one reader of every number and word the program takes from outside
// (DESIGN.md §8): the VLACNN_* / REPRO_* environment knobs, the CLI flags,
// the sweep-cache CSV fields and JSON number tokens. Each goes through one of
// the parse_* functions below, so each follows one grammar:
//
//  * an unsigned integer is decimal digits only — no sign, no whitespace —
//    and must lie in the caller's [lo, hi] (its destination type's range);
//  * a real must parse whole, be finite and lie in the caller's RealRange;
//  * a word matches one row of a fixed table, case-insensitively.
//
// Anything else throws std::runtime_error "<source>: expected ..., got
// '<value>'": the message starts with the source (a knob, a flag, a cache
// column) and quotes the value. A typo must never silently select a default
// the run did not ask for.
//
// The knobs read through the env_* entry points, which add one rule: unset and
// empty ("") are the same thing, the caller's default.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace vlacnn {

/// All of `text` as a decimal integer of type T in [lo, hi]. Defined for int,
/// unsigned, unsigned long and unsigned long long.
template <class T>
T parse_uint(std::string_view source, std::string_view text, T lo = 0,
             T hi = std::numeric_limits<T>::max());

/// The interval a real must lie in: [lo, hi], or (lo, hi] when `lo_open`.
struct RealRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
};
inline constexpr RealRange kPositive{
    0, std::numeric_limits<double>::infinity(), true};
inline constexpr RealRange kNonNegative{
    0, std::numeric_limits<double>::infinity(), false};

/// All of `text` as a finite real in `range`.
double parse_real(std::string_view source, std::string_view text,
                  RealRange range = {});

/// One spelling a word accepts, and the value it selects.
struct EnvWord {
  const char* word;
  int value;
};

/// The `table` row whose word matches `text` case-insensitively.
EnvWord parse_word(std::string_view source, std::string_view text,
                   std::initializer_list<EnvWord> table);

/// The knob's value, or nullopt when it is unset or empty.
std::optional<std::string> env_text(const char* name);

/// An unsigned decimal knob in [lo, hi]; nullopt when unset or empty.
std::optional<std::uint64_t> env_uint(
    const char* name, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// A finite, positive real knob; nullopt when unset or empty.
std::optional<double> env_positive(const char* name);

/// A word knob: the value of the `table` row whose word matches the knob's
/// value case-insensitively; nullopt when unset or empty.
std::optional<int> env_word(const char* name,
                            std::initializer_list<EnvWord> table);

}  // namespace vlacnn
