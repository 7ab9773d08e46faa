// Runtime algorithm selection — the paper's primary contribution for model
// serving: pick the fastest convolution algorithm per layer given the layer's
// dimensions and the hardware's (vector length, L2 size).
//
// HeuristicSelector is the rule-of-thumb baseline from the papers' analysis
// (Winograd for 3x3 stride-1, Direct for high-resolution/low-channel, GEMM
// for skinny matrices). The random-forest classifier of Paper II Section 4.3
// lives in src/dispatch (FlatForest, LearnedDispatcher), where the serving
// path uses it.
#pragma once

#include <cstdint>

#include "algos/conv_args.h"

namespace vlacnn {

class AlgorithmSelector {
 public:
  virtual ~AlgorithmSelector() = default;

  /// Pick an algorithm for the layer; the result is always applicable.
  virtual Algo select(const ConvLayerDesc& desc, std::uint32_t vlen_bits,
                      std::uint64_t l2_bytes) const = 0;
};

/// Rule-based baseline distilled from the papers' per-layer findings.
class HeuristicSelector final : public AlgorithmSelector {
 public:
  Algo select(const ConvLayerDesc& desc, std::uint32_t vlen_bits,
              std::uint64_t l2_bytes) const override;
};

}  // namespace vlacnn
