// ConvEngine: the library's front door.
//
// Configure it with a target vector architecture (vector length, lanes, L2
// size); it executes convolutional layers numerically with any of the four
// algorithms, predicts per-layer cycle costs on that architecture, and picks
// an algorithm per layer with the HeuristicSelector when none is given.
//
//   ConvEngine engine({.vlen_bits = 1024, .lanes = 8}, 4 << 20);
//   Tensor out = engine.run(desc, input, weights);          // auto-selected
//   TimingStats t = engine.estimate(desc, Algo::kWinograd); // what-if
#pragma once

#include <optional>
#include <vector>

#include "algos/registry.h"
#include "core/selector.h"
#include "tensor/tensor.h"

namespace vlacnn {

class ConvEngine {
 public:
  explicit ConvEngine(VpuConfig vpu = {}, std::uint64_t l2_bytes = 1u << 20);

  const VpuConfig& vpu() const { return vpu_; }
  std::uint64_t l2_bytes() const { return l2_bytes_; }

  /// Algorithm the HeuristicSelector picks for this layer.
  Algo choose(const ConvLayerDesc& desc) const;

  /// Execute numerically (NCHW in, OIHW weights, NCHW out). With no explicit
  /// algorithm, choose() picks one.
  Tensor run(const ConvLayerDesc& desc, const Tensor& input,
             const std::vector<float>& weights_oihw,
             std::optional<Algo> algo = std::nullopt) const;

  /// Predicted cycle cost of running this layer with this algorithm on the
  /// configured architecture (trace-driven simulation).
  TimingStats estimate(const ConvLayerDesc& desc, Algo algo) const;

 private:
  VpuConfig vpu_;
  std::uint64_t l2_bytes_;
};

}  // namespace vlacnn
