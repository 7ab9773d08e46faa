// Calibrates DispatchConfig::dispatch_cycles_per_layer and proves the
// FlatForest lowering is a faithful, faster copy of the fitted forest.
//
// Two gates, both must hold (exit 1 otherwise):
//   1. Agreement: FlatForest::predict must equal RandomForest::predict on
//      every sample of the paper's selection dataset — the lowering is an
//      optimization, not an approximation.
//   2. Envelope: the measured FlatForest cost per prediction, converted to
//      cycles at the repo's 2 GHz presentation clock, must fit inside
//      kDefaultDispatchCyclesPerLayer. If this fails, either the forest got
//      bigger or the default is stale — recalibrate the constant and the
//      committed BENCH_dispatch_overhead.json together.
//
// Run from the build tree: ./bench_dispatch_overhead   (no arguments).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "dispatch/learned_dispatcher.h"
#include "ml/dataset.h"
#include "report/collector.h"

using namespace vlacnn;
using namespace vlacnn::bench;

namespace {

constexpr double kClockGhz = 2.0;  ///< presentation clock (DESIGN.md §10)

/// Median ns/prediction of `fn` over `reps` full passes of the dataset.
template <typename Fn>
double median_ns_per_predict(const Dataset& ds, int reps, Fn&& fn) {
  long long sink = 0;
  for (const auto& x : ds.x) sink += fn(x);  // warm-up pass
  std::vector<double> per_rep;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& x : ds.x) sink += fn(x);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    per_rep.push_back(ns / static_cast<double>(ds.size()));
  }
  if (sink == -1) std::printf("(unreachable)\n");  // defeat DCE
  std::sort(per_rep.begin(), per_rep.end());
  return per_rep[per_rep.size() / 2];
}

int run() {
  banner("Dispatch selector overhead (FlatForest vs RandomForest)",
         "ICPP'24 Section 4.3 selector in the serving hot path");
  Env env;
  const std::vector<const Network*> nets{&env.vgg16, &env.yolo20};
  const Dataset ds = build_selection_dataset(*env.driver, nets, paper2_vlens(),
                                             paper2_l2_sizes());
  std::vector<std::size_t> all(ds.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  RandomForest forest;
  forest.fit(ds, all, ForestParams{});  // 100 trees, depth 10, bootstrap
  const dispatch::FlatForest flat(forest, ds.num_classes());
  std::printf("forest: %zu trees, %zu flattened nodes, %zu features, "
              "%zu-sample dataset\n",
              flat.tree_count(), flat.node_count(), flat.num_features(),
              ds.size());

  // Gate 1: exact agreement on every sample.
  std::size_t mismatches = 0;
  for (const auto& x : ds.x) {
    if (forest.predict(x) != flat.predict(x)) ++mismatches;
  }
  std::printf("agreement: %zu/%zu predictions identical\n",
              ds.size() - mismatches, ds.size());
  if (mismatches != 0) {
    std::printf("FAIL: FlatForest disagrees with RandomForest on %zu samples\n",
                mismatches);
    return 1;
  }

  // Timing: both paths over the same samples, median of alternating reps.
  constexpr int kReps = 25;
  const double rf_ns = median_ns_per_predict(
      ds, kReps, [&](const std::vector<float>& x) { return forest.predict(x); });
  const double flat_ns = median_ns_per_predict(
      ds, kReps, [&](const std::vector<float>& x) { return flat.predict(x); });
  const double rf_cycles = rf_ns * kClockGhz;
  const double flat_cycles = flat_ns * kClockGhz;
  std::printf("\nper-prediction cost (median of %d reps, %zu predictions "
              "each, %.0f GHz clock):\n",
              kReps, ds.size(), kClockGhz);
  std::printf("  RandomForest::predict  %8.1f ns  = %7.0f cycles\n", rf_ns,
              rf_cycles);
  std::printf("  FlatForest::predict    %8.1f ns  = %7.0f cycles   (%.1fx)\n",
              flat_ns, flat_cycles, rf_ns / flat_ns);

  // Gate 2: the default selector charge must cover the measured cost.
  const double budget = dispatch::kDefaultDispatchCyclesPerLayer;
  const bool fits = flat_cycles <= budget;
  std::printf("\ndefault dispatch_cycles_per_layer = %.0f cycles  ->  %s "
              "(measured %0.f, headroom %.1fx)\n",
              budget, fits ? "PASS" : "FAIL", flat_cycles,
              flat_cycles > 0 ? budget / flat_cycles : 0.0);
  return fits ? 0 : 1;
}

}  // namespace

int main() { return report::run_tool("bench_dispatch_overhead", run); }
