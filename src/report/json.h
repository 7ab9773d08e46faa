// Minimal JSON value + recursive-descent parser, just enough for the report
// tooling (vlacnn-report reads its own emitted files back; tests lock the
// schema down through it), plus the one reader of the labeled-JSONL files
// the obs sinks write. Full syntax checking, no streaming: report files are a
// few hundred KB at most. Throws std::runtime_error on malformed input.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace vlacnn::report {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  bool boolean = false;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member lookup on an object; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;

  /// Member that must exist; throws std::runtime_error naming `key` otherwise.
  const Json& at(const std::string& key) const;

  bool is_null() const { return type == Type::kNull; }
  double num_or(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }

  /// Append the member `key` and make this value an object: a bool stays a
  /// bool, any other arithmetic value becomes a number, anything else (a
  /// string) a string. Returns *this, so a report cell (report.h) is built
  /// as one chained expression.
  template <typename T>
  Json& add(std::string key, const T& v) {
    Json m;
    if constexpr (std::is_same_v<T, bool>) {
      m.type = Type::kBool;
      m.boolean = v;
    } else if constexpr (std::is_arithmetic_v<T>) {
      m.type = Type::kNumber;
      m.number = static_cast<double>(v);
    } else {
      m.type = Type::kString;
      m.string = v;
    }
    type = Type::kObject;
    object.emplace_back(std::move(key), std::move(m));
    return *this;
  }
};

/// Parse a complete JSON document (trailing junk is an error). Nesting is
/// capped at 64 arrays/objects, far above any artifact's (about 4), so a
/// hostile file fails with a parse error rather than overflowing the stack.
Json parse_json(const std::string& text);

/// Append `v` as JSON text: members and elements separated by ", ", keys by
/// ": ", numbers through json_number.
void append_json(std::string& out, const Json& v);

/// Typed member lookups: each throws std::runtime_error naming `key` when
/// `obj` lacks it or it holds another type. num_at rejects null too, unless
/// `null_as` gives null's value — the JSONL writers emit null for non-finite
/// numbers.
double num_at(const Json& obj, const std::string& key,
              std::optional<double> null_as = std::nullopt);
const std::string& str_at(const Json& obj, const std::string& key);
bool bool_at(const Json& obj, const std::string& key);
const std::vector<Json>& array_at(const Json& obj, const std::string& key);
const Json& object_at(const Json& obj, const std::string& key);

/// num_at, checked to be an integer in [-2^bits, 2^bits) when `is_signed`,
/// else in [0, 2^bits): a fraction or an out-of-range value throws
/// std::runtime_error naming `key`. int_at and uint_at below call it.
double integer_at(const Json& obj, const std::string& key, int bits,
                  bool is_signed);

/// Signed integer member lookup: num_at, but 2.5 or 1e30 for an int throws
/// (naming `key`) instead of casting to garbage.
template <typename T = int>
T int_at(const Json& obj, const std::string& key) {
  static_assert(std::is_integral_v<T> && std::is_signed_v<T>);
  return static_cast<T>(
      integer_at(obj, key, std::numeric_limits<T>::digits, true));
}

/// Unsigned integer member lookup: like int_at, and a negative value throws
/// too, where a cast would wrap it to 2^64 - n.
template <typename T = std::uint64_t>
T uint_at(const Json& obj, const std::string& key) {
  static_assert(std::is_integral_v<T> && std::is_unsigned_v<T> &&
                !std::is_same_v<T, bool>);
  return static_cast<T>(
      integer_at(obj, key, std::numeric_limits<T>::digits, false));
}

/// Read a labeled-JSONL file, the format obs::LabeledJsonlSink writes
/// (DESIGN.md §8). Each `{"type":"run","label":...}` line opens a block:
/// on_block(label). A file that starts without one opens an unlabeled block
/// first — on_block("") — so a recorder's to_jsonl() written directly reads
/// as one block. Every other non-empty line goes to on_line(line, type),
/// which returns false for a type it does not know. Throws std::runtime_error
/// "cannot open <path>", or "<path>:<line>: <what>" for any error on a line:
/// malformed JSON, a missing or mistyped field, an unknown type, or an
/// exception from a callback.
void read_labeled_jsonl(
    const std::string& path,
    const std::function<void(const std::string& label)>& on_block,
    const std::function<bool(const Json& line, const std::string& type)>&
        on_line);

/// Serialize a string with JSON escaping, including the surrounding quotes
/// (obs::json_escaped).
std::string json_quote(const std::string& s);

/// Serialize a double as a JSON number (obs::json_append_number: printf
/// %.17g bytes, exact round-trip). Non-finite values are not representable in
/// JSON and serialize as null — callers that care label them separately (see
/// report.cpp's degenerate handling).
std::string json_number(double v);

}  // namespace vlacnn::report
