// Structured run reports: per-grid-point cycle attribution, roofline
// classification, named sections of self-describing cells (serving, dispatch,
// timeline, fleet and kernel-phase results), JSON/CSV emitters, and the
// baseline-diff used by the perf-regression gate (tools/vlacnn-report,
// scripts/ci.sh). See DESIGN.md §9 for schema and methodology.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.h"
#include "sweep/results_db.h"

namespace vlacnn::report {

/// Machine model behind the roofline classification. Defaults mirror the
/// simulator: each lane retires one FMA (2 flops) per cycle, and DRAM streams
/// at MemConfig's rate.
struct RooflineParams {
  double flops_per_lane_per_cycle = 2.0;
  double mem_bytes_per_cycle = MemConfig{}.mem_bytes_per_cycle;

  double peak_flops_per_cycle(std::uint32_t lanes) const {
    return flops_per_lane_per_cycle * static_cast<double>(lanes);
  }
  /// Arithmetic intensity at which the compute roof meets the bandwidth roof.
  double ridge(std::uint32_t lanes) const {
    return peak_flops_per_cycle(lanes) / mem_bytes_per_cycle;
  }
};

enum class Bound { kCompute, kBandwidth, kDegenerate };
const char* to_string(Bound b);
Bound bound_from_string(const std::string& s);

/// Derived attribution for one sweep row. Degenerate inputs are clamped and
/// labeled rather than leaking inf/NaN into emitters ("ai": inf is not valid
/// JSON): `degenerate` is "" for a healthy row, else "zero_cycles" or
/// "zero_dram_bytes". Non-finite fields serialize as JSON null.
struct Attribution {
  double vec_utilization = 0;           ///< vec_elems / (lanes * cycles)
  double arith_intensity = 0;           ///< flops / DRAM bytes; +inf when bytes==0
  double achieved_flops_per_cycle = 0;  ///< flops / cycles
  double attainable_flops_per_cycle = 0;  ///< min(peak, ai * bandwidth)
  double roofline_efficiency = 0;       ///< achieved / attainable, in [0,1]-ish
  double l1_miss_rate = 0;              ///< bd misses/accesses; NaN if none
  double l2_miss_rate = 0;              ///< bd misses/accesses; NaN if none
  Bound bound = Bound::kDegenerate;
  std::string degenerate;               ///< "" or the degeneracy label
};

Attribution attribute(const SweepRow& row, const RooflineParams& p);

/// The named sections of report cells, in document order. A cell is a
/// report::Json object: an ordered list of named number, string and bool
/// fields. The subsystem that owns the numbers fills it in, so adding a
/// metric is one `.add(...)` there (DESIGN.md §9):
///
///   kServing     serving/serving.cpp              a serving-grid point
///   kRequestSim  serving/request_sim.cpp          a request-level simulation
///   kDispatch    dispatch/learned_dispatcher.cpp  a learned-dispatch run
///   kTimeline    serving/request_sim.cpp          a serving-timeline digest
///   kFleet       serving/fleet_planner.cpp        a fleet composition
///   kPhases      sweep/sweep.cpp                  a kernel phase of a row
enum class Section {
  kServing,
  kRequestSim,
  kDispatch,
  kTimeline,
  kFleet,
  kPhases
};
inline constexpr std::array<Section, 6> kAllSections = {
    Section::kServing,  Section::kRequestSim, Section::kDispatch,
    Section::kTimeline, Section::kFleet,      Section::kPhases};

/// How one section is keyed and written. Field lists are padded with "".
struct SectionLayout {
  const char* name;        ///< the section's JSON key, e.g. "request_sim"
  const char* total;       ///< its cell count's key under "totals"
  std::size_t key_fields;  ///< leading fields that key a cell (Collector)
  std::array<std::string_view, 4> line_breaks;  ///< fields opening a line
};
const SectionLayout& layout(Section s);

struct ReportEntry {
  SweepRow row;
  Attribution attr;
};

/// A complete run report: every sweep row touched by the run (deterministic
/// key order) with attribution precomputed, plus the cells of each section.
struct RunReport {
  std::string tool;       ///< slug naming the producing driver
  double wall_ms = 0;     ///< wall-clock of the producing run
  RooflineParams roofline;
  std::vector<ReportEntry> entries;  ///< sorted by SweepKey
  std::array<std::vector<Json>, kAllSections.size()> sections;

  std::vector<Json>& cells(Section s) {
    return sections[static_cast<std::size_t>(s)];
  }
  const std::vector<Json>& cells(Section s) const {
    return sections[static_cast<std::size_t>(s)];
  }
  double total_cycles() const;
  std::string to_json() const;
  std::string to_csv() const;
};

/// Stable human/diff key for one grid point, e.g.
/// "vgg16/L03/gemm6/vlen1024/l2:4194304/lanes8/int".
std::string entry_key(const SweepKey& k);

/// Parse a report emitted by to_json(). Attribution is recomputed from the
/// stored raw numbers and roofline params (the derived fields in the file are
/// for human consumption, not trusted). Cells are kept as written, except
/// that a null field reads back as NaN (the writer's spelling of it).
/// Throws std::runtime_error on malformed or wrong-schema input, a mistyped
/// or out-of-range entry field, a duplicate entry, or a cell that is not an
/// object.
RunReport report_from_json(const std::string& text);

struct DiffOptions {
  double cycle_budget_pct = 2.0;
  /// Wall-time gating is opt-in: wall clock is noisy across machines, so the
  /// gate only checks it when a non-negative budget is given explicitly.
  double wall_budget_pct = -1.0;
};

struct DiffDelta {
  std::string key;
  double base = 0;
  double cur = 0;
  double delta_pct = 0;  ///< +inf when base == 0 and cur > 0
};

struct DiffResult {
  std::vector<DiffDelta> regressions;   ///< per-key cycles over budget
  std::vector<DiffDelta> improvements;  ///< per-key cycles under -budget
  std::vector<std::string> only_base;   ///< keys missing from current
  std::vector<std::string> only_cur;    ///< keys missing from baseline
  DiffDelta total;                      ///< summed cycles over shared keys
  bool total_regressed = false;
  DiffDelta wall;                       ///< wall_ms (checked only if opted in)
  bool wall_regressed = false;
  std::size_t compared = 0;             ///< shared keys

  /// Gate verdict: no per-key, total, or (opted-in) wall regression.
  bool ok() const {
    return regressions.empty() && !total_regressed && !wall_regressed;
  }
};

DiffResult diff_reports(const RunReport& base, const RunReport& cur,
                        const DiffOptions& opt);

/// ASCII attribution/roofline table for `vlacnn-report summarize`.
std::string summarize(const RunReport& r);

/// Render a diff for humans (used by `vlacnn-report diff`).
std::string diff_to_string(const DiffResult& d, const DiffOptions& opt);

}  // namespace vlacnn::report
