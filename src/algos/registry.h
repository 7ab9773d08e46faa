// Entry points tying the four kernels to the two execution modes:
//   * conv_simulate  — trace-driven timing on a fresh cache hierarchy (the
//     per-layer data point of every co-design figure),
//   * conv_functional — numeric execution validated against conv_reference,
//     optionally with timing attached (hybrid mode used by tests).
//
// Weight-side preparation (OIHW -> algorithm layout, Winograd U tiles) is
// offline for inference and excluded from timing; data-side transformations
// (im2col, Winograd input/output transforms) are charged. See DESIGN.md.
#pragma once

#include <string>
#include <vector>

#include "algos/conv_args.h"
#include "memsim/memory_system.h"
#include "tensor/conv_desc.h"
#include "tensor/tensor.h"
#include "vpu/pmu.h"
#include "vpu/timing_model.h"
#include "vpu/vpu_config.h"

namespace vlacnn {

/// Everything a timing simulation needs.
struct SimConfig {
  VpuConfig vpu{};
  MemConfig mem{};
  TimingConfig timing{};
  Sampler sampler{};
  Gemm6Blocks blocks{};
  /// Grid-point identity for kernel-profile labeling (DESIGN.md §14). Empty
  /// net means "not part of a network sweep"; the profile label then falls
  /// back to the layer's shape string. Purely observational — no effect on
  /// simulated cycles.
  std::string net;
  int layer = -1;
};

/// Convenience constructor for the sweep grid: vector length (bits), L2 size
/// (bytes), lanes, attachment. L2 associativity is fixed at 16 ways.
SimConfig make_sim_config(std::uint32_t vlen_bits, std::uint64_t l2_bytes,
                          std::uint32_t lanes = 8,
                          VpuAttach attach = VpuAttach::kIntegratedL1);

/// Simulate one layer with one algorithm. The layer runs on a cold hierarchy
/// (every figure in the papers reports per-layer numbers). Throws if the
/// algorithm is not applicable to the layer. Emits a "conv_simulate" obs span
/// and per-point cycle/host-time histograms when observability is on.
/// When VLACNN_KERNPROF is set, a simulated PMU rides along (vpu/pmu.h): the
/// per-phase attribution and counter windows are recorded to the process-wide
/// KernProfSink under the grid-point label, and the PMU's phases are copied to
/// `phases` when the caller passes it (the PMU never changes the returned
/// stats; `phases` is left untouched when profiling is off).
TimingStats conv_simulate(Algo algo, const ConvLayerDesc& desc,
                          const SimConfig& config,
                          std::vector<PmuPhaseStats>* phases = nullptr);

/// conv_simulate minus the observability hooks: the no-obs baseline that
/// bench_obs_overhead measures the disabled-path cost against. Numerically
/// identical to conv_simulate; not useful elsewhere.
TimingStats conv_simulate_no_obs(Algo algo, const ConvLayerDesc& desc,
                                 const SimConfig& config);

/// Numerically execute one layer with one algorithm.
/// in: NCHW tensor matching desc; weights: OIHW. Returns NCHW output.
/// If `timing` is non-null, a hybrid run attaches a TimingModel (with the
/// MemConfig from `config`, or defaults) and writes the stats there.
Tensor conv_functional(Algo algo, const ConvLayerDesc& desc, const Tensor& in,
                       const std::vector<float>& weights_oihw,
                       const VpuConfig& vpu, TimingStats* timing = nullptr,
                       const SimConfig* config = nullptr);

/// Reformat OIHW weights into the channel-wide Direct kernel's blocked layout
/// [oc/mvl][kh][kw][ic][mvl] (output channels innermost within a block of the
/// vector length, so weight-vector loads are unit-stride and the per-segment
/// working set is contiguous — oneDNN-style OIhwXo blocking).
std::vector<float> reformat_weights_direct(const ConvLayerDesc& desc,
                                           const std::vector<float>& w_oihw,
                                           std::uint64_t mvl);

}  // namespace vlacnn
