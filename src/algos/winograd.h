// Winograd F(6x6,3x3) convolution with inter-tile parallelism across channels
// (Paper I Section IV.B / Fig. 4-5; used on RVV in Paper II).
//
// Pipeline per layer:
//   1. input transform  V[64][ic][P]  = B^T d B per 8x8 tile, vectorized across
//      a block of channels (vector = channel-block x 8 tile columns, capped at
//      2048 bits — the implementation property that saturates Winograd's VLEN
//      scaling beyond 2048-bit vectors),
//   2. tuple multiplication: 64 independent (oc x ic x P) GEMMs, vectorized
//      over tiles with the same 2048-bit block cap,
//   3. output transform Y = A^T M A, symmetric to step 1.
// Transposes between transform stages go through scratch buffers with strided
// stores (RVV lacks the tuple/transpose intrinsics ARM-SVE has — Paper I
// Section VII), which is part of the algorithm's modelled cost.
//
// The weight transform (U = G g G^T) is offline for inference and excluded from
// timing, exactly as in Paper I's evaluation.
#pragma once

#include "algos/conv_args.h"
#include "tensor/conv_desc.h"
#include "vpu/buffer.h"
#include "vpu/functional_engine.h"
#include "vpu/trace_engine.h"

namespace vlacnn {

/// Tuple-multiplication / transform vector-length cap in elements (2048 bits of
/// fp32 — Paper I: "16 blocks with 4 elements in each block").
inline constexpr std::uint64_t kWinoVlCapElems = 64;

/// Output-tile edge used throughout the papers (8x8 input tiles).
inline constexpr int kWinoDefaultM = 6;

/// Number of m x m output tiles for a layer.
std::uint64_t winograd_tile_count(const ConvLayerDesc& d,
                                  int m = kWinoDefaultM);

/// Host-side weight transform: OIHW 3x3 weights -> U[(m+2)^2][oc][ic]
/// (tiles stored transposed; see the orientation notes in winograd.cpp).
void winograd_prepare_weights(const ConvLayerDesc& d, const float* weights_oihw,
                              float* u, int m = kWinoDefaultM);

/// in: NCHW, u: transformed weights [(m+2)^2][oc][ic], out: NCHW.
/// Requires algo_applicable(kWinograd, d). `m` in {2, 4, 6} selects
/// F(mxm, 3x3); the papers use 6 (larger tiles are numerically unsafe,
/// smaller ones do more arithmetic — see `vlacnn-figures wino_tilesize`).
template <class E>
void conv_winograd(E& eng, const ConvLayerDesc& d, BufView in, BufView u,
                   BufView out, const Sampler& sampler, int m = kWinoDefaultM);

extern template void conv_winograd<TraceEngine>(TraceEngine&,
                                                const ConvLayerDesc&, BufView,
                                                BufView, BufView,
                                                const Sampler&, int);
extern template void conv_winograd<FunctionalEngine>(FunctionalEngine&,
                                                     const ConvLayerDesc&,
                                                     BufView, BufView, BufView,
                                                     const Sampler&, int);

}  // namespace vlacnn
