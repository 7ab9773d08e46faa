#include "vpu/pmu.h"

#include <stdexcept>
#include <utility>

#include "common/exact_split.h"

namespace vlacnn {

Pmu::Pmu(double interval_cycles, bool interval_locked, std::size_t max_windows)
    : interval_(interval_cycles),
      interval_locked_(interval_locked),
      max_windows_(max_windows),
      next_boundary_(interval_cycles) {
  if (!(interval_cycles > 0.0))
    throw std::invalid_argument("pmu: interval_cycles must be positive");
  if (max_windows < 2)
    throw std::invalid_argument("pmu: max_windows must be >= 2");
}

void Pmu::begin_phase(const char* name, const TimingStats& now) {
  if (finalized_) throw std::logic_error("pmu: begin_phase after finalize");
  if (in_phase_)
    throw std::logic_error("pmu: phases do not nest (begin inside begin)");
  std::size_t idx = phases_.size();
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == name) {
      idx = i;
      break;
    }
  }
  if (idx == phases_.size()) {
    PmuPhaseStats p;
    p.name = name;
    phases_.push_back(std::move(p));
  }
  open_index_ = idx;
  phase_start_ = now;
  in_phase_ = true;
}

void Pmu::end_phase(const TimingStats& now) {
  if (!in_phase_) throw std::logic_error("pmu: end_phase with no open phase");
  phases_[open_index_].raw += now - phase_start_;
  in_phase_ = false;
}

void Pmu::on_event(const TimingStats& now) {
  if (finalized_ || now.cycles < next_boundary_) return;
  close_window(now);
}

void Pmu::close_window(const TimingStats& now) {
  windows_.push_back({window_start_.cycles, now.cycles, now - window_start_});
  window_start_ = now;
  next_boundary_ = now.cycles + interval_;
  if (interval_locked_ || windows_.size() < max_windows_) return;
  // Auto-coarsen: merge adjacent pairs and double the cadence so long runs
  // keep a bounded trajectory instead of an unbounded window list.
  std::size_t out = 0;
  std::size_t i = 0;
  for (; i + 1 < windows_.size(); i += 2) {
    PmuWindow m = windows_[i];
    m.t_end = windows_[i + 1].t_end;
    m.delta += windows_[i + 1].delta;
    windows_[out++] = m;
  }
  if (i < windows_.size()) windows_[out++] = windows_[i];
  windows_.resize(out);
  interval_ *= 2.0;
}

void Pmu::finalize(const TimingStats& total) {
  if (finalized_) throw std::logic_error("pmu: finalize called twice");
  if (in_phase_)
    throw std::logic_error("pmu: finalize with a phase still open");
  finalized_ = true;

  // Trailing partial window (skipped when the last event landed exactly on a
  // boundary, or the run produced no cycles at all).
  if (total.cycles > window_start_.cycles)
    windows_.push_back(
        {window_start_.cycles, total.cycles, total - window_start_});

  // "(other)" absorbs everything no annotated phase claimed: per-counter
  // residuals of total minus the raw phase deltas, in phase order.
  PmuPhaseStats other{kOtherPhase, 0, total};
  for (const PmuPhaseStats& p : phases_) other.raw -= p.raw;
  phases_.push_back(std::move(other));

  // Exact cycle partition over the raw-cycle weights (the split_service_span
  // chain from §13): a right-to-left fold of phases[i].cycles telescopes
  // back to total.cycles bit for bit.
  exact_partition(
      total.cycles, phases_.size(),
      [&](std::size_t i) { return phases_[i].raw.cycles; },
      [&](std::size_t i, double share) { phases_[i].cycles = share; });
}

}  // namespace vlacnn
