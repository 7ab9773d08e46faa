// Process-wide collection point for run reports, armed by the VLACNN_REPORT
// env knob (a directory path) via bench::banner(). When enabled, the sweep
// driver records every row it touches, and the serving, dispatch, fleet and
// sweep layers record their report cells; at process exit the collector
// writes <dir>/<tool>.report.json and .csv. Rows and cells live in key-ordered
// maps, so the emitted report is deterministic regardless of the parallel
// sweep's completion order — a parallel run's report is bit-identical to a
// serial run's.
#pragma once

#include <array>
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

/// Called by bench::banner(): when VLACNN_REPORT is set, remembers the run's
/// tool slug + start time and registers an atexit hook that writes
/// <dir>/<slug>.report.json and <dir>/<slug>.report.csv. Idempotent; the
/// first title wins. No-op when collection is disabled.
void arm_exit_report(const std::string& title);

/// The atexit hook's body, callable directly (tests): snapshot the global
/// collector and write both report files for `title` into report_dir().
/// Returns the JSON path. Throws on I/O failure.
std::string write_report_files(const std::string& title, double wall_ms);

}  // namespace vlacnn::report
