// Simulated performance-monitoring unit for the timing model (DESIGN.md §14).
//
// Two views of one kernel run, both derived from the TimingModel's event
// stream (TimingModel calls Pmu::on_event after every accounted event when a
// Pmu is attached):
//
//   * Phases: the algorithms annotate their structural phases (pack-A,
//     pack-B, macro-kernel, input-transform, ...) with pmu_begin/pmu_end (or
//     the PmuPhase RAII guard). Each phase accumulates the raw TimingStats
//     deltas of every visit. finalize() then publishes an *exact* cycle
//     partition: raw deltas are the weights of exact_partition()
//     (common/exact_split.h, the chain of Sterbenz splits that also cuts the
//     §13 request spans), plus a trailing "(other)" phase absorbing
//     un-annotated cycles and rounding dust — so folding the published
//     per-phase cycles back-to-front (right-to-left) reconstitutes the
//     aggregate TimingStats.cycles bit for bit, at sampled and unsampled
//     scales alike (EXPECT_EQ-testable; the raw deltas themselves only sum to
//     the total approximately, since each snapshot subtraction rounds
//     independently).
//
//   * Counter windows: every `interval` simulated cycles the PMU closes a
//     window holding the counter deltas since the previous boundary —
//     occupancy split (compute / mem_issue / mem_stall / scalar), avg VL,
//     vector elements (lane utilization), L1/L2 accesses & misses (miss-rate
//     trajectory), and DRAM bytes. Window ends are event-aligned: the event
//     that crosses a boundary closes the window at its own end time, so
//     windows partition the run with no gaps or overlaps. When the window
//     count would exceed `max_windows` and the interval was not explicitly
//     pinned, adjacent windows merge pairwise and the interval doubles
//     (mirrors the timeline recorder's auto-coarsening).
//
// The PMU is pure accounting — attaching one never changes the simulated
// cycle counts, and the disabled path is a single null-pointer check per
// event (inside the <2% bench_obs_overhead budget).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "vpu/timing_model.h"

namespace vlacnn {

/// One annotated phase. `cycles` is its exact share of the kernel total
/// (valid after Pmu::finalize()); `raw` is the counter delta summed over the
/// phase's visits, and raw.cycles is the partition's weight.
struct PmuPhaseStats {
  std::string name;
  double cycles = 0;
  TimingStats raw;
};

/// One counter window: the counter delta over [t_start, t_end) simulated
/// cycles. Its rates divide by t_end - t_start, the window's span on the
/// simulated clock (delta.cycles of a merged window sums its halves' spans,
/// each rounded on its own).
struct PmuWindow {
  double t_start = 0;
  double t_end = 0;
  TimingStats delta;

  double duration() const { return t_end - t_start; }
  double dram_bytes_per_cycle() const {
    return duration() > 0 ? delta.mem_bytes / duration() : 0.0;
  }
  /// Lane utilization given the machine's lane count: elements retired per
  /// lane-cycle of the window.
  double lane_utilization(std::uint32_t lanes) const {
    const double d = duration();
    return d > 0 && lanes > 0
               ? delta.vec_elems / (static_cast<double>(lanes) * d)
               : 0.0;
  }
};

/// The PMU. One instance per simulation; attach with TimingModel::set_pmu().
/// Not thread-safe (a simulation point is single-threaded).
class Pmu {
 public:
  /// Name of the synthetic phase finalize() appends for cycles not covered by
  /// any annotated phase (plus the partition's rounding dust).
  static constexpr const char* kOtherPhase = "(other)";

  /// `interval_cycles` is the window cadence (> 0). When `interval_locked`,
  /// auto-coarsening is disabled (the caller pinned the cadence explicitly)
  /// and the window count is unbounded. `max_windows` caps the window vector
  /// when coarsening is allowed.
  explicit Pmu(double interval_cycles, bool interval_locked = false,
               std::size_t max_windows = 256);

  // -- phase API (normally driven via TimingModel::pmu_begin/pmu_end) --------
  /// Open phase `name` at the counter state `now`. Phases do not nest; a
  /// begin inside an open phase throws std::logic_error. Multiple begin/end
  /// visits of the same name accumulate into one PmuPhaseStats.
  void begin_phase(const char* name, const TimingStats& now);
  /// Close the open phase at `now`; throws std::logic_error when none is open.
  void end_phase(const TimingStats& now);
  bool in_phase() const { return in_phase_; }

  // -- event hook -------------------------------------------------------------
  /// Called by the TimingModel after every accounted event with the updated
  /// aggregate stats. Closes counter windows as boundaries are crossed.
  void on_event(const TimingStats& now);

  /// Seal the run at the final aggregate stats: closes the trailing partial
  /// window, appends the "(other)" phase, and computes the exact per-phase
  /// cycle partition. Must be called exactly once, with no phase open.
  void finalize(const TimingStats& total);
  bool finalized() const { return finalized_; }

  /// Phases in first-annotation order, "(other)" last (valid after
  /// finalize(); `cycles` fields fold back-to-front to the kernel total).
  const std::vector<PmuPhaseStats>& phases() const { return phases_; }
  const std::vector<PmuWindow>& windows() const { return windows_; }
  /// The effective window cadence (>= the constructed one after coarsening).
  double interval_cycles() const { return interval_; }

 private:
  void close_window(const TimingStats& now);

  double interval_;
  bool interval_locked_;
  std::size_t max_windows_;
  double next_boundary_;
  TimingStats window_start_{};

  bool in_phase_ = false;
  std::size_t open_index_ = 0;
  TimingStats phase_start_{};
  std::vector<PmuPhaseStats> phases_;

  std::vector<PmuWindow> windows_;
  bool finalized_ = false;
};

/// RAII phase guard for kernel code: opens `name` on the timing model's PMU
/// when one is attached, closes it on scope exit. Inert when `tm` is null
/// (FunctionalEngine without timing) or no PMU is attached, so kernels
/// annotate unconditionally.
class PmuPhase {
 public:
  PmuPhase(TimingModel* tm, const char* name)
      : tm_(tm != nullptr && tm->pmu() != nullptr ? tm : nullptr) {
    if (tm_ != nullptr) tm_->pmu_begin(name);
  }
  ~PmuPhase() {
    if (tm_ != nullptr) tm_->pmu_end();
  }
  PmuPhase(const PmuPhase&) = delete;
  PmuPhase& operator=(const PmuPhase&) = delete;

 private:
  TimingModel* tm_;
};

}  // namespace vlacnn
