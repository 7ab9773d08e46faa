// Fleet capacity planner (DESIGN.md §15): the cheapest total silicon that
// carries a mixed-model load inside a latency SLO.
//
// Generalizes CapacityPlanner (one chip, one model) to N heterogeneous chips
// and routed multi-model traffic. The search space is deliberately two-level:
//   1. chip *types* — the Pareto frontier of (chip area, mix-weighted
//      per-image service time per instance) over the single-chip Fig-12 grid,
//      thinned to a small menu;
//   2. fleet *compositions* — every multiset of up to max_chips chips over
//      that menu, enumerated in a deterministic lexicographic order.
// Compositions that cannot possibly carry the load (an optimistic bound that
// assumes perfect batching on every chip) are pruned without simulation; the
// rest run through simulate_fleet under the query's Poisson mix. The
// heterogeneity headline — cheapest fleet vs cheapest *homogeneous* fleet —
// falls out of the same candidate list.
//
// Determinism: the menu, the enumeration order, the prune bound, and each
// candidate's simulation are pure functions of (nets, mix, query), and the
// pool writes candidates into pre-sized slots — byte-identical plans at any
// VLACNN_THREADS.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "serving/fleet.h"

namespace vlacnn::serving {

/// A fleet-planning question: the cheapest total silicon (sum of
/// AreaModel::chip_mm2 over the fleet) that carries `load_rps` of the mixed
/// Poisson traffic with `attainment_target` of requests inside `slo_ms`. The
/// CapacityQuery fields keep their single-chip meaning (`requests` per
/// candidate, `seed` shared by every candidate's arrivals).
struct FleetQuery : CapacityQuery {
  RouterSpec router;              ///< routing policy + seed for every fleet
  double router_hop_cycles = 0;   ///< constant front-end hop, cycles
  int max_chips = 4;       ///< largest fleet size searched (>= 1)
  int max_chip_types = 5;  ///< Pareto-frontier points kept as chip types
};

/// One searched fleet composition: `counts[t]` chips of the plan's
/// chip_types[t]. Pruned compositions carry simulated == false and default
/// stats.
struct FleetCandidate {
  std::vector<int> counts;  ///< per-type chip counts (sum in [1, max_chips])
  std::string label;        ///< composition_label() of (types, counts)
  double total_area_mm2 = 0;
  bool simulated = false;   ///< false = pruned by the optimistic bound
  FleetStats stats;         ///< valid when simulated
  bool meets_slo = false;   ///< attainment >= target (and under budget)
};

/// A fleet search result: the chip-type menu, every candidate in
/// deterministic enumeration order, and the two headline answers — the
/// cheapest feasible fleet overall and the cheapest *homogeneous* one (a
/// single chip type). Their area gap is the measured value of heterogeneity.
struct FleetPlan {
  std::vector<ServingPoint> chip_types;  ///< area-ascending frontier menu
  std::vector<FleetCandidate> candidates;
  std::optional<FleetCandidate> best;
  std::optional<FleetCandidate> best_homogeneous;
};

/// Stable composition label: "<count>x<chip-label>" terms joined with '+',
/// in type order, zero-count types omitted —
/// e.g. "2xc4v2048l16i4+1xc1v512l1i1".
std::string composition_label(const std::vector<ServingPoint>& types,
                              const std::vector<int>& counts);

/// Searches fleet compositions for the cheapest total silicon meeting a
/// target load + SLO over a multi-model traffic mix. Thread-safe const API
/// (state is a SweepDriver — internally synchronized — and a value-type
/// AreaModel); plan() fans candidate simulations out on the pool.
class FleetPlanner {
 public:
  explicit FleetPlanner(SweepDriver* driver, AreaModel area = {})
      : driver_(driver), area_(area) {}

  /// Search fleet compositions for `mix` over `nets` (one Network per mix
  /// model, same order as mix.names). Each menu type's per-model cost models
  /// are resolved once and shared by every composition simulated under the
  /// query's mixed load (full replication: every chip hosts every model); a
  /// simulated candidate records a report fleet cell when collection is
  /// armed. `pool` overrides the shared pool (tests pin sizes 1 vs 8);
  /// nullptr uses ThreadPool::shared(). Throws std::invalid_argument on an
  /// inconsistent mix/nets pairing or a non-positive query.
  FleetPlan plan(const std::vector<Network>& nets, const FleetTrafficMix& mix,
                 const FleetQuery& q, ThreadPool* pool = nullptr) const;

  /// The chip-type menu plan() searches: the Pareto frontier of (chip area,
  /// mix-weighted per-image cycles / instances) over the single-chip grid,
  /// thinned to at most q.max_chip_types points keeping both endpoints.
  /// Area-ascending, deterministic. One cost lookup per network and distinct
  /// (vlen, L2 slice): warm sweep cache ⇒ 40 pure lookups for two networks.
  std::vector<ServingPoint> chip_type_menu(const std::vector<Network>& nets,
                                           const FleetTrafficMix& mix,
                                           const FleetQuery& q) const;

 private:
  SweepDriver* driver_;
  AreaModel area_;
};

}  // namespace vlacnn::serving
