// Learned per-layer algorithm dispatch for the request-level serving
// simulator (ROADMAP item 2, DESIGN.md §11).
//
// The paper's random forest picks the fastest convolution algorithm per layer
// with ~92.8% accuracy; this module puts that selector in the serving hot
// path with its inference cost charged to the request, instead of assuming
// the precomputed `network_optimal` oracle. A LearnedDispatcher is a
// serving::ServiceModel: on every dispatched batch it prices the current
// per-layer plan from the sweep-cache ground truth (layer_algo_cycles),
// charges dispatch_cycles_per_layer of selector overhead per image per layer,
// and epsilon-greedily re-explores the layers the forest got wrong until it
// has observed every applicable algorithm there — converging to the oracle
// plan while paying, honestly, for every exploration batch along the way.
//
// Determinism: the dispatcher draws only from its own seeded Rng and the
// deterministic cycle table, so a (table, forest, config) triple replays the
// same plan sequence on every run and thread count — the capacity planner's
// byte-identical-JSON guarantee extends to learned dispatch.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dispatch/flat_forest.h"
#include "net/network.h"
#include "serving/request_sim.h"
#include "sweep/sweep.h"

namespace vlacnn::dispatch {

/// The calibrated default of DispatchConfig::dispatch_cycles_per_layer:
/// bench_dispatch_overhead measures the flattened 100-tree depth-10 forest at
/// ~1.4 µs per prediction, i.e. ~2.9k cycles at the repo's 2 GHz presentation
/// clock (BENCH_dispatch_overhead.json); the default rounds that up to 4000
/// for headroom. Recalibrate the constant and the baseline JSON together.
inline constexpr double kDefaultDispatchCyclesPerLayer = 4000.0;

/// kDefaultDispatchCyclesPerLayer, overridable via the VLACNN_DISPATCH_CYCLES
/// env knob (a positive number of cycles). Parsed once per call — callers
/// resolve it when building a DispatchConfig. Throws std::runtime_error on a
/// malformed or non-positive value: a typo must not silently zero the
/// selector's cost.
double default_dispatch_cycles();

/// Tunables of the learned dispatch path.
struct DispatchConfig {
  /// Selector cycles charged per image per conv layer. Must be positive.
  double dispatch_cycles_per_layer = kDefaultDispatchCyclesPerLayer;
  /// Per-batch probability that an unconverged (mispredicted) layer tries one
  /// of its untried applicable algorithms. In [0, 1].
  double epsilon = 0.2;
  /// Seed of the dispatcher's private exploration Rng.
  std::uint64_t seed = 0x1dea;
};

/// Running totals of one dispatcher's life. Conv cycle fields are summed over
/// every simulated image, so learned/oracle are directly comparable.
struct DispatchStats {
  int layers = 0;               ///< conv layers dispatched per image
  int mispredicted_layers = 0;  ///< initial forest picks != oracle argmin
  std::uint64_t batches = 0;
  std::uint64_t images = 0;
  std::uint64_t explorations = 0;  ///< exploration dispatches taken
  double learned_conv_cycles = 0;  ///< conv cycles actually paid
  double oracle_conv_cycles = 0;   ///< conv cycles the oracle would have paid
  double selector_cycles = 0;      ///< forest-inference cycles charged

  /// (learned + selector) / oracle - 1; 0 before any batch.
  double oracle_gap() const {
    return oracle_conv_cycles > 0
               ? (learned_conv_cycles + selector_cycles) / oracle_conv_cycles -
                     1.0
               : 0.0;
  }
};

/// Per-(layer, algorithm) ground truth for one hardware point, in the shape
/// SweepDriver::layer_algo_cycles returns (NaN = not applicable).
using LayerCycleTable = std::vector<std::array<double, kAllAlgos.size()>>;

class LearnedDispatcher final : public serving::ServiceModel {
 public:
  /// `table[l][a]` prices kAllAlgos[a] on layer l; `features[l]` is layer l's
  /// selector feature vector (selection_features at this hardware point);
  /// `weight_bytes` is the network's conv-weight footprint
  /// (serving::conv_weight_bytes), streamed at MemConfig's DRAM rate and
  /// amortized over a batch by serving::BatchCostModel::amortizing, as
  /// serving::batch_cost_model does. Throws
  /// std::invalid_argument on size mismatches, a layer with no applicable
  /// algorithm, or an invalid config.
  LearnedDispatcher(const FlatForest* forest, LayerCycleTable table,
                    std::vector<std::vector<float>> features,
                    double weight_bytes, const DispatchConfig& cfg);

  /// Price one batch: the current plan's BatchCostModel::amortizing service
  /// cycles plus the selector's per-image, per-layer overhead. Advances the
  /// bandit state.
  double service_cycles(int batch) override;

  /// Request-trace notes for the most recent service_cycles() call: the plan
  /// served (comma-joined algos), which layers this batch explored (the
  /// exploration flag), convergence state, and the predicted-vs-oracle
  /// per-image conv cycles plus the selector charge — everything a trace
  /// needs to blame a slow request on a dispatch decision.
  void trace_annotations(std::vector<obs::TraceNote>& out) override;

  std::unique_ptr<serving::ServiceModel> clone() const override;

  const DispatchStats& stats() const { return stats_; }

  /// Current plan as indices into kAllAlgos.
  const std::vector<int>& plan() const { return plan_; }

  /// True once every initially-mispredicted layer has observed all of its
  /// applicable algorithms (the plan is then the oracle plan).
  bool converged() const;

 private:
  const FlatForest* forest_;
  LayerCycleTable table_;
  DispatchConfig cfg_;
  Rng rng_;
  double weight_cycles_ = 0;        ///< amortizable DRAM cycles per batch
  double oracle_per_image_ = 0;     ///< sum of per-layer minima
  std::vector<int> plan_;           ///< best algo observed so far, per layer
  std::vector<std::vector<int>> untried_;  ///< applicable-but-unobserved algos
  DispatchStats stats_;
  /// Most recent batch, for trace_annotations: per-image conv cycles of the
  /// choices actually served, and the (layer, algo) exploration picks.
  double last_per_image_ = 0;
  std::vector<std::pair<std::size_t, std::size_t>> last_explored_;
};

/// A ServiceModelFactory for CapacityPlanner::evaluate_grid: each (vlen,
/// L2-slice) pair gets a LearnedDispatcher over that pair's cycle table and
/// feature vectors, read once, sharing one immutable compiled forest; the
/// planner runs each simulation on a fresh clone of it. A finished model
/// publishes its DispatchStats for a grid point (ServiceModel::publish) to
/// obs metrics and the report::Collector, as a dispatch cell keyed by that
/// point.
serving::ServiceModelFactory learned_service_factory(
    std::shared_ptr<const FlatForest> forest, SweepDriver* driver,
    const Network& net, const DispatchConfig& cfg);

}  // namespace vlacnn::dispatch
