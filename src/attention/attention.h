// Multi-head self-attention on the VLA vector engine — the thesis's named
// future-work direction ("optimizing ViTs on vector architectures ... many
// matrices are skinny and irregular ... each self-attention layer involves two
// matrix-matrix multiplications along with one softmax kernel").
//
// The layer reuses the 3-loop GEMM kernel for all projections and the
// attention matmuls, and adds a VLA-vectorized row softmax. Like the conv
// kernels it is written once over the engine, so the same code is numerically
// validated (FunctionalEngine vs a scalar reference) and timing-simulated
// (TraceEngine) — see `vlacnn-figures vit_attention` for the resulting
// co-design view.
#pragma once

#include <vector>

#include "algos/conv_args.h"
#include "algos/registry.h"
#include "vpu/buffer.h"
#include "vpu/functional_engine.h"
#include "vpu/trace_engine.h"

namespace vlacnn {

/// Dimensions of one self-attention layer.
struct AttentionDesc {
  int seq_len = 196;  ///< tokens (ViT-Base on 224x224: 14x14 patches + cls)
  int dim = 768;      ///< embedding dimension
  int heads = 12;

  int head_dim() const { return dim / heads; }
  /// FLOPs of the four projections + two attention matmuls.
  std::uint64_t flops() const {
    const std::uint64_t s = seq_len, d = dim;
    return 2 * (4 * s * d * d + 2 * s * s * d);
  }
};

/// x: [seq][dim]; wq/wk/wv/wo: [dim][dim] row-major (output = x * W^T is not
/// used; projections compute X * W with W laid out [dim_in][dim_out]);
/// out: [seq][dim]. Scratch comes from the engine.
template <class E>
void self_attention(E& eng, const AttentionDesc& desc, BufView x, BufView wq,
                    BufView wk, BufView wv, BufView wo, BufView out,
                    const Sampler& sampler);

/// Scalar reference implementation for validation.
void self_attention_reference(const AttentionDesc& desc, const float* x,
                              const float* wq, const float* wk,
                              const float* wv, const float* wo, float* out);

/// Host convenience: numeric run via FunctionalEngine.
std::vector<float> self_attention_functional(const AttentionDesc& desc,
                                             const std::vector<float>& x,
                                             const std::vector<float>& wq,
                                             const std::vector<float>& wk,
                                             const std::vector<float>& wv,
                                             const std::vector<float>& wo,
                                             const VpuConfig& vpu);

/// Timing simulation on a cold hierarchy (same contract as conv_simulate).
TimingStats attention_simulate(const AttentionDesc& desc,
                               const SimConfig& config);

extern template void self_attention<TraceEngine>(TraceEngine&,
                                                 const AttentionDesc&, BufView,
                                                 BufView, BufView, BufView,
                                                 BufView, BufView,
                                                 const Sampler&);
extern template void self_attention<FunctionalEngine>(
    FunctionalEngine&, const AttentionDesc&, BufView, BufView, BufView,
    BufView, BufView, BufView, const Sampler&);

}  // namespace vlacnn
