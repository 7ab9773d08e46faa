// Winograd minimal-filtering transforms F(m, 3) for m in {2, 4, 6}.
//
// The 2-D algorithm computes, per 8x8 (n x n) input tile:
//     Y = A^T [ (G g G^T) .* (B^T d B) ] A
// where g is the 3x3 filter, d the input tile, Y the m x m output tile.
//
// B^T and A^T are the canonical matrices used by NNPACK/cuDNN-style
// implementations (interpolation points 0, +-1, +-2, +-1/2 for F(6,3)). Rather
// than also hardcoding G — where sign/scale conventions differ between
// codebases — G is *derived* at first use by solving the defining identity
//     A^T [ (G e_k) .* (B^T e_j) ] = y(e_k, e_j)   for all basis pairs (k, j)
// as a least-squares problem. The residual of that solve is stored and checked:
// if the hardcoded B^T/A^T were inconsistent, construction would throw instead
// of silently producing a wrong convolution.
//
// The paper's motivation for inter-tile parallelism (Paper I, Section IV.B) is
// that tiles larger than 8x8 (m > 6) are numerically inaccurate;
// `vlacnn-figures wino_accuracy` demonstrates the error growth across m.
#pragma once

#include <cstdint>
#include <vector>

namespace vlacnn {

struct WinogradTransform {
  int m = 0;                 ///< output tile edge
  int r = 0;                 ///< kernel edge (3)
  std::vector<double> at;    ///< A^T, m x n row-major
  std::vector<double> g;     ///< G,   n x r row-major
  std::vector<double> bt;    ///< B^T, n x n row-major
  double derivation_residual = 0.0;

  int n() const { return m + r - 1; }
};

/// Cached transform for F(m,3), m in {2,4,6}. Throws for other sizes or if the
/// derivation residual exceeds 1e-8.
const WinogradTransform& winograd_transform(int m);

/// V = B^T d B for an n x n tile (row-major float I/O, double accumulation).
void wino_transform_input(const WinogradTransform& t, const float* d, float* v);

/// U = G g G^T for an r x r kernel.
void wino_transform_weight(const WinogradTransform& t, const float* g, float* u);

/// Y = A^T M A for an n x n Hadamard-product tile.
void wino_transform_output(const WinogradTransform& t, const float* m_tile,
                           float* y);

/// Max |A^T((Gg) .* (B^T d)) - correlation(g, d)| over `trials` random (g, d)
/// pairs in 1-D — the identity the 2-D algorithm nests. Used by tests.
double wino_identity_error(const WinogradTransform& t, int trials,
                           std::uint64_t seed);

}  // namespace vlacnn
