// Sterbenz-exact splitting: the one arithmetic behind every bit-exact
// attribution in the repo — the request latency spans (serving), their
// per-layer segments (obs/reqtrace) and the PMU's per-phase cycle partition
// (vpu/pmu). It sits below all three so none reaches up into another.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>

namespace vlacnn {

/// Split `total` (>= 0) into {head, tail} such that head + tail == total
/// **exactly in floating point**, with head within one rounding of
/// `head_approx` (clamped to [0, total]). Naive subtraction cannot promise
/// that: fl(total - head) + head can miss total by an ulp. This uses the
/// Sterbenz lemma — whichever of the two parts lands in [total/2, total],
/// subtracting it from total is exact — so the returned pair always
/// reconstitutes total. Zero/negative/NaN total yields {0, 0}. The latency
/// attribution leans on this: components must sum to the latency a request
/// actually saw, byte for byte.
std::pair<double, double> exact_split(double total, double head_approx);

/// Partition `total` over `n` parts in proportion to `weight(i)` by a chain
/// of exact_split()s: part i gets its weight's share of the weights not yet
/// assigned, and the last part absorbs the remainder, so the shares folded
/// right-to-left (s[0] + (s[1] + (... + s[n-1]))) reconstitute `total` bit
/// for bit. (A left fold of naive per-part products would not: each product
/// rounds independently.) `share(i, s)` receives the shares in order.
/// Non-positive and NaN weights count as zero, and every weight does when
/// their sum is not finite; the last part then absorbs everything.
template <typename Weight, typename Share>
void exact_partition(double total, std::size_t n, Weight weight,
                     Share share) {
  const auto clamped = [&](std::size_t i) {
    const double w = weight(i);
    return w > 0 ? w : 0.0;
  };
  double weight_left = 0;
  for (std::size_t i = 0; i < n; ++i) weight_left += clamped(i);
  double remaining = total;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double w = clamped(i);
    const double approx = weight_left > 0 && std::isfinite(weight_left)
                              ? remaining * (w / weight_left)
                              : 0;
    const auto [head, tail] = exact_split(remaining, approx);
    share(i, head);
    remaining = tail;
    weight_left -= w;
  }
  if (n > 0) share(n - 1, remaining);
}

}  // namespace vlacnn
