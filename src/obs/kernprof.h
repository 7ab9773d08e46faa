// Kernel-profile (simulated PMU) emission for the timing model (DESIGN.md
// §14): when VLACNN_KERNPROF names an output file, every simulated
// convolution point attaches a Pmu (vpu/pmu.h) and records one JSONL block
// here — a "kernel" header with the grid-point identity and aggregate cycle
// split, one "phase" line per annotated algorithm phase (exact Sterbenz cycle
// partition + raw counter deltas), and one "window" line per PMU counter
// window (occupancy split, avg VL, lane utilization, L1/L2 miss rates, DRAM
// bytes/cycle — the miss-rate *trajectory* over the kernel's lifetime).
//
// Knobs (obs/jsonl_sink.h; env grammar in common/env.h):
//   VLACNN_KERNPROF=<file.jsonl>      enable and name the output file
//   VLACNN_KERNPROF_INTERVAL=<cycles> window cadence (default 1e6; > 0;
//                                     malformed values throw). Pinning the
//                                     interval also disables the PMU's
//                                     window auto-coarsening.
//
// This header holds only the knobs and the sink: the obs layer sits at the
// bottom of the include order, so conv_simulate (algos/registry) writes each
// block straight from the finalized Pmu's own records. The process-wide
// KernProfSink is a labeled-JSONL sink: one block per labeled grid point,
// written in label order by report::finish_run(), so a parallel sweep emits
// the same bytes as a serial one at any VLACNN_THREADS.
#pragma once

#include <string>

#include "obs/jsonl_sink.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

// VLACNN_KERNPROF is a PathKnob and VLACNN_KERNPROF_INTERVAL an IntervalKnob
// (obs/jsonl_sink.h); the setters serve tests. An overridden interval keeps
// the PMU's window cadence pinned instead of auto-coarsening.

bool kernprof_enabled();  ///< the hot-path gate
std::string kernprof_path();  ///< "" when disabled
void set_kernprof_path(const std::string& path);
double kernprof_interval_cycles();
bool kernprof_interval_overridden();
void set_kernprof_interval_cycles(double cycles);

// -- sink ---------------------------------------------------------------------

/// The process-wide labeled-JSONL sink of kernel-profile blocks, written to
/// kernprof_path() and labeled by grid point (the report's entry key).
class KernProfSink final : public LabeledJsonlSink {
 public:
  static KernProfSink& global();

 private:
  using LabeledJsonlSink::LabeledJsonlSink;
};

}  // namespace vlacnn::obs
