// Minimal JSON value + recursive-descent parser, just enough for the report
// tooling (vlacnn-report reads its own emitted files back; tests lock the
// schema down through it). Full syntax checking, no streaming: report files
// are a few hundred KB at most. Throws std::runtime_error on malformed input.
#pragma once

#include <string>
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
};

/// Parse a complete JSON document (trailing junk is an error).
Json parse_json(const std::string& text);

/// Serialize a string with JSON escaping, including the surrounding quotes
/// (obs::json_escaped).
std::string json_quote(const std::string& s);

/// Serialize a double as a JSON number (obs::json_append_number: printf
/// %.17g bytes, exact round-trip). Non-finite values are not representable in
/// JSON and serialize as null — callers that care label them separately (see
/// report.cpp's degenerate handling).
std::string json_number(double v);

}  // namespace vlacnn::report
