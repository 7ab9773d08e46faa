// Model-serving co-location simulator (Paper II Section 4.4, Fig 12).
//
// A multicore RVV chip hosts N identical model instances, one per core, with
// static L2 way-partitioning (Intel-CAT-like, as the paper assumes): each
// instance sees an exclusive slice of the shared L2, so its per-image latency
// is the single-core co-design result at (vlen, slice). External memory
// bandwidth is assumed sufficient (the paper's HBM assumption). Aggregate
// throughput is instances / latency; area comes from the 7 nm model.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "area/area_model.h"
#include "net/network.h"
#include "sweep/sweep.h"

namespace vlacnn {

/// One hardware/co-location configuration of the Fig-12 study: a multicore
/// chip hosting `instances` copies of the model, one per core, each owning an
/// exclusive slice of the shared L2.
struct ServingPoint {
  int cores = 1;
  std::uint32_t vlen_bits = 512;
  std::uint64_t l2_total_bytes = 1u << 20;  ///< shared L2 capacity, bytes
  int instances = 1;                        ///< co-located model copies

  /// Exclusive L2 capacity per instance, bytes.
  std::uint64_t l2_slice_bytes() const {
    return l2_total_bytes / static_cast<std::uint64_t>(instances);
  }
  /// One instance per core, an at-least-1MB power-of-two slice each.
  bool feasible() const;
};

/// Per-instance cycles of `net` on one core of a serving chip: its conv-layer
/// time at `vlen_bits` with an exclusive `l2_slice_bytes`, from
/// SweepDriver::network_optimal, or network_cycles when `fixed` pins one
/// algorithm (gemm6 fallback). The one cost every serving model prices.
double instance_cycles(SweepDriver& driver, const Network& net,
                       std::uint32_t vlen_bits, std::uint64_t l2_slice_bytes,
                       std::optional<Algo> fixed);

/// The points of a list that share one key, numbered in first-appearance
/// order: group[i] is point i's group, first[g] the index of group g's first
/// point.
struct PointGroups {
  std::vector<std::size_t> group;
  std::vector<std::size_t> first;
};

/// Groups `points` by (vlen, L2 slice), the only fields instance_cycles
/// reads, or by (vlen, L2 slice, instances) when `by_instances` — everything
/// a point's request-level simulation reads besides the query. The Fig-12
/// grid's 160 points fall into 20 and 56 groups.
PointGroups group_points(const std::vector<ServingPoint>& points,
                         bool by_instances);

/// instance_cycles at every point's (vlen, L2 slice), looked up once per
/// group_points group.
std::vector<double> instance_cycles(SweepDriver& driver, const Network& net,
                                    const std::vector<ServingPoint>& points,
                                    std::optional<Algo> fixed);

/// Steady-state result for one ServingPoint. Cycles are simulated-core
/// cycles (2 GHz in the paper); seconds appear only in presentation code.
struct ServingEval {
  ServingPoint point;
  double cycles_per_image = 0;  ///< per-instance latency (conv layers), cycles
  double images_per_cycle = 0;  ///< aggregate throughput, images per cycle
  double area_mm2 = 0;          ///< 7 nm chip area
};

/// Steady-state co-location simulator (the paper's Fig-12 analysis). All
/// const methods are thread-safe: state is a SweepDriver (internally
/// synchronized) and a value-type AreaModel, so evaluate() may be called
/// concurrently from pool tasks — the request-level capacity planner
/// (request_sim.h) does on its learned-dispatch path.
class ServingSimulator {
 public:
  ServingSimulator(SweepDriver* driver, AreaModel area = {})
      : driver_(driver), area_(area) {}

  /// Evaluate one configuration. `fixed` pins a single algorithm for all
  /// layers (with gemm6 fallback); nullopt selects the optimal per layer.
  ServingEval evaluate(const Network& net, const ServingPoint& point,
                       std::optional<Algo> fixed) const;

  /// The same evaluation from the point's instance_cycles, already looked up.
  ServingEval evaluate(const ServingPoint& point, double cycles_per_image) const;

  /// The feasible points of the paper's grid — cores/instances in
  /// {1,4,16,64}, vlen 512..4096, shared L2 in {1,4,16,64,256} MB — in the
  /// deterministic nested-loop enumeration order every grid consumer shares.
  static std::vector<ServingPoint> grid_points();

  /// evaluate() over grid_points(), in their order, with one cost lookup per
  /// distinct (vlen, L2 slice).
  std::vector<ServingEval> grid(const Network& net,
                                std::optional<Algo> fixed) const;

  const AreaModel& area_model() const { return area_; }

 private:
  SweepDriver* driver_;
  AreaModel area_;
};

}  // namespace vlacnn
