// The one reader of the VLACNN_* / REPRO_* environment knobs (DESIGN.md §8).
// Every knob goes through one of these four functions, so every knob follows
// one grammar:
//
//  * unset and empty ("") are the same thing: the caller's default;
//  * an unsigned integer is decimal digits only — no sign, no whitespace —
//    and must lie in the caller's [lo, hi] (its destination type's range);
//  * a positive real must parse whole, be finite and be > 0;
//  * a word matches one row of a fixed table, case-insensitively.
//
// Anything else throws std::runtime_error "<NAME>: ... '<value>' ...": the
// message starts with the knob name and quotes the value. A typo must never
// silently select a default the run did not ask for.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>

namespace vlacnn {

/// The knob's value, or nullopt when it is unset or empty.
std::optional<std::string> env_text(const char* name);

/// An unsigned decimal knob in [lo, hi]; nullopt when unset or empty.
std::optional<std::uint64_t> env_uint(
    const char* name, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// A finite, positive real knob; nullopt when unset or empty.
std::optional<double> env_positive(const char* name);

/// One spelling a word knob accepts, and the value it selects.
struct EnvWord {
  const char* word;
  int value;
};

/// A word knob: the value of the `table` row whose word matches the knob's
/// value case-insensitively; nullopt when unset or empty.
std::optional<int> env_word(const char* name,
                            std::initializer_list<EnvWord> table);

}  // namespace vlacnn
