#include "core/selector.h"

namespace vlacnn {

Algo HeuristicSelector::select(const ConvLayerDesc& d, std::uint32_t vlen_bits,
                               std::uint64_t l2_bytes) const {
  (void)l2_bytes;
  // High-resolution, few input channels: Direct (layer-1 shape).
  if (d.ih >= 128 && d.ic * d.kw < static_cast<int>(vlen_bits / 32)) {
    return Algo::kDirect;
  }
  // 3x3 stride-1: Winograd, unless channels are too few for inter-tile
  // parallelism or the matrices are extremely skinny with huge channel counts.
  if (algo_applicable(Algo::kWinograd, d) && d.ic >= 4) {
    return Algo::kWinograd;
  }
  // Skinny matrices with many channels: blocked GEMM; otherwise 3-loop GEMM.
  if (d.gemm_n() < 4096 || d.gemm_k() >= 256) return Algo::kGemm6;
  return Algo::kGemm3;
}

}  // namespace vlacnn
