// Text emission helpers shared by every artifact writer: the obs-layer
// JSON/JSONL writers (metrics report, Chrome-trace file, timeline, reqtrace,
// kernprof), report/json.h, the report CSV, the sweep-cache CSV and the
// dispatch trace notes. One escaper and one number formatter serve them all,
// so no two writers can render the same value differently. append_kv is the
// field writer of the timeline, reqtrace and kernprof records. write_text_file
// is the one whole-file write: the JSONL sinks (obs/jsonl_sink.h), the Chrome
// trace, the report JSON and CSV, write_csv_file and vlacnn-capacity --json.
#pragma once

#include <string>
#include <type_traits>

namespace vlacnn::obs {

/// Append `s` to `out` as a quoted JSON string. Escapes '"', '\\', the
/// common control shorthands (\n, \r, \t) and every other byte < 0x20 as
/// \u00xx; bytes >= 0x20 (including UTF-8 multibyte sequences) pass through
/// unchanged. The result is always parseable JSON, whatever the input.
void json_append_escaped(std::string& out, const std::string& s);

/// `s` as a standalone quoted JSON string.
std::string json_escaped(const std::string& s);

/// Append `v` rendered byte for byte as std::printf("%.17g", v) would, via
/// std::to_chars (general format, precision 17). 17 significant digits
/// round-trip every finite double exactly. Non-finite values keep printf's
/// spelling (inf, -inf, nan, -nan).
void append_g17(std::string& out, double v);

/// `v` rendered by append_g17, as a standalone string.
std::string g17(double v);

/// Append `v` as a JSON number (append_g17); non-finite values become
/// `null` — inf/NaN are not valid JSON literals.
void json_append_number(std::string& out, double v);

/// Append `,"key":value`: a double via json_append_number, an integer in
/// decimal, a bool as true/false, a std::string through the escaper.
template <class T>
void append_kv(std::string& out, const char* key, const T& v) {
  out += ",\"";
  out += key;
  out += "\":";
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    json_append_escaped(out, v);
  } else if constexpr (std::is_floating_point_v<T>) {
    json_append_number(out, v);
  } else {
    out += std::to_string(v);
  }
}

/// Replace the file at `path` with `bytes`, creating parent directories.
/// The file is closed on every path, a failed write included. Throws
/// std::runtime_error "<who>: cannot open <path>" or "<who>: short write to
/// <path>".
void write_text_file(const std::string& path, const std::string& bytes,
                     const char* who);

}  // namespace vlacnn::obs
