// Text emission helpers shared by every artifact writer: the obs-layer
// JSON/JSONL writers (metrics report, Chrome-trace file, timeline, reqtrace,
// kernprof), report/json.h, the report CSV, the sweep-cache CSV and the
// dispatch trace notes. One escaper and one number formatter serve them all,
// so no two writers can render the same value differently. write_text_file
// is the file write of the three JSONL sinks.
#pragma once

#include <string>

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

/// Replace the file at `path` with `bytes`, creating parent directories.
/// The file is closed on every path, a failed write included. Throws
/// std::runtime_error "<who>: cannot open <path>" or "<who>: short write to
/// <path>".
void write_text_file(const std::string& path, const std::string& bytes,
                     const char* who);

}  // namespace vlacnn::obs
