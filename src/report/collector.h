// Process-wide collection point for run reports, enabled by the VLACNN_REPORT
// env knob (a directory path) and titled by bench::banner() or
// vlacnn-capacity. When enabled, the sweep driver records every row it
// touches, and the serving, dispatch, fleet and sweep layers record their
// report cells; finish_run() writes <dir>/<slug>.report.json and .csv before
// `main` returns. Rows and cells live in key-ordered maps, so the emitted
// report is deterministic regardless of the parallel sweep's completion
// order — a parallel run's report is bit-identical to a serial run's.
//
// finish_run() is also the one writer of every other run artifact: the
// timeline, reqtrace and kernprof JSONL, the Chrome trace and the metrics
// report.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "report/report.h"

namespace vlacnn::report {

/// True when report collection is on. Hot-path gate: after the first call
/// (which reads VLACNN_REPORT once) this is a single relaxed atomic load.
bool enabled();

/// The output directory ("" when disabled).
std::string report_dir();

/// Programmatic override of the env knob (tests). "" disables collection.
void set_report_dir(const std::string& dir);

/// Lowercased filesystem-safe slug of a bench banner title: runs of
/// non-alphanumerics collapse to single '_', trimmed at both ends.
/// "Fig 1: per-layer, VGG-16" -> "fig_1_per_layer_vgg_16".
std::string slugify(const std::string& title);

class Collector {
 public:
  static Collector& global();

  /// Record one sweep row (thread-safe; last write per key wins, but all
  /// writers for a key carry the same simulation result).
  void record_row(const SweepRow& row);

  /// Record a group of one section's cells (thread-safe). The group's cells
  /// share one key, the section's leading layout(s).key_fields fields, read
  /// off the first cell, with numbers compared as numbers and strings as
  /// strings. A group replaces the one recorded before under its key: last
  /// write wins, and concurrent writers of a key carry identical cells, as
  /// every producer is deterministic. snapshot() emits groups in key order,
  /// each group in the order it was recorded: one cell per key, except
  /// kPhases, whose group is a grid point's phases in the kernel's
  /// first-seen order. Throws std::invalid_argument when the first cell
  /// lacks the key fields. An empty group records nothing.
  void record(Section s, std::vector<Json> cells);

  /// Assemble everything recorded so far into a report.
  RunReport snapshot(const std::string& tool, double wall_ms,
                     const RooflineParams& p = {}) const;

  /// Drop all recorded state (tests).
  void reset();

  std::size_t row_count() const;

 private:
  /// Orders cell keys field by field: numbers as numbers, strings as
  /// strings (so cores 4 sorts before cores 16).
  struct KeyLess {
    bool operator()(const std::vector<Json>& a,
                    const std::vector<Json>& b) const;
  };
  using Groups = std::map<std::vector<Json>, std::vector<Json>, KeyLess>;

  mutable std::mutex mu_;
  std::map<SweepKey, SweepRow> rows_;
  std::array<Groups, kAllSections.size()> cells_;  ///< by Section
};

/// Names the run's report files after the slug of `title` (bench::banner(),
/// vlacnn-capacity). The first title wins; finish_run() writes a report only
/// when one was set.
void set_report_title(const std::string& title);

/// The report step of finish_run(), callable directly (tests): snapshot the
/// global collector and write both report files for `title` into
/// report_dir(). Returns the JSON path. Throws on I/O failure.
std::string write_report_files(const std::string& title, double wall_ms);

/// Every main's return: writes each armed artifact in a fixed order — the
/// report JSON and CSV (when collection is on and a title was set; wall_ms
/// counts from process start), the timeline, reqtrace and kernprof JSONL
/// (each when its knob is on and it holds a block), the VLACNN_TRACE file,
/// then the VLACNN_METRICS report on stderr. A failed write prints
/// `<tool>: <error>` on stderr, and the later writes still run. Returns
/// `code`, or 1 when `code` is 0 and a write failed.
int finish_run(const char* tool, int code);

/// Every main's body: `body`'s exit code, or, when it throws, 1 after
/// printing `<tool>: <what>` on stderr; returned through finish_run(tool, ...).
int run_tool(const char* tool, const std::function<int()>& body);

}  // namespace vlacnn::report
