// Minimal CSV reading/writing used by the sweep results cache.
//
// The format is deliberately restricted: no quoting, no embedded commas in fields.
// Every producer in this library writes plain numeric/identifier fields, so the
// restriction is enforced rather than worked around.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace vlacnn {

/// One parsed CSV table: a header row and string cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// 1-based source line number of the header (1 unless blank lines precede
  /// it) and of each entry in `rows` (parallel to `rows`).
  int header_line = 0;
  std::vector<int> row_lines;

  /// True when lenient parsing skipped a ragged final line (see
  /// CsvReadOptions::tolerate_partial_tail).
  bool dropped_partial_tail = false;

  /// True when the input ended with a newline (or was empty). A false value
  /// means the last line may have been cut mid-write; callers that append to
  /// the file should treat that final row as suspect.
  bool complete_tail = true;
};

struct CsvReadOptions {
  /// A writer killed mid-append leaves a truncated final line. With this set,
  /// a final row whose field count does not match the header is dropped (and
  /// flagged via CsvTable::dropped_partial_tail) instead of throwing. Ragged
  /// rows anywhere else still throw: those indicate corruption, not a
  /// truncated append.
  bool tolerate_partial_tail = false;
};

/// Parse CSV text. Throws std::runtime_error "<source>:<line>: ragged row ..."
/// on a row whose field count differs from the header's (subject to
/// `opts.tolerate_partial_tail` for the final line).
CsvTable parse_csv(const std::string& text, const CsvReadOptions& opts = {},
                   const std::string& source = "csv");

/// Read a CSV file, its errors naming `path`; returns an empty table if the
/// file does not exist.
CsvTable read_csv_file(const std::string& path, const CsvReadOptions& opts = {});

/// Replace the file at `path` with the serialized table (obs::write_text_file:
/// creates the parent directory, throws naming `path` on a failed write).
void write_csv_file(const std::string& path, const CsvTable& table);

}  // namespace vlacnn
