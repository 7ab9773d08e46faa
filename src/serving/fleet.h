// Multi-chip fleet serving simulator (DESIGN.md §15) — and the repo's only
// serving event loop: simulate_requests (request_sim.h) is this loop run as a
// one-chip, one-model, zero-hop fleet.
//
// Composes N single-chip request simulators — each chip a ServingPoint with
// its own instances, per-(chip,model) FIFO queues, and batching policies —
// behind a front-end router (fleet_router.h) into ONE deterministic
// discrete-event loop on the §10 simulated cycle clock. Traffic is a seeded
// mix over several models (YOLOv3 + VGG-16 in the paper's co-location
// study); per-model placement restricts which chips host which model, and
// the router picks among the hosts.
//
// Determinism contract (the §10 guarantee, extended fleet-wide): simulated
// time is a cycle counter, arrivals/mix/router draw only from seeded
// splitmix64 Rngs, and the event tie order at equal timestamps is fixed —
//   completions < queue-joins (router-hop delivery) < arrivals < flushes,
// with completions popping (chip, instance) ascending and dispatch scanning
// (chip, model) ascending. Same seeds ⇒ byte-identical FleetStats JSON,
// regardless of VLACNN_THREADS (the loop itself is single-threaded; the
// planners parallelize across *simulations*, never within one).
//
// Latency attribution is a chain of Sterbenz exact_split()s. For every
// completed request, evaluated left-to-right in floating point:
//   (router_hop + (queue_wait + formation_wait)) + service
//     == completion - arrival
// bit-exactly; the single-chip identity is the hop == 0 case by
// construction (0.0 + x == x in IEEE 754). The hop lands in per-request
// traces as its own span (obs/reqtrace.h router_hop/chip fields).
//
// Units: all latencies and timestamps are **cycles**; conversions to
// milliseconds happen only at the CLI edge (2 GHz presentation clock).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serving/fleet_router.h"
#include "serving/request_sim.h"

namespace vlacnn::obs {
struct TimelineConfig;
}

namespace vlacnn::serving {

/// One chip of the fleet: a single-chip hardware point plus the subset of
/// models it hosts (placement). Chips are heterogeneous — the planner draws
/// them from different points of the area/throughput Pareto frontier.
struct ChipSpec {
  ServingPoint point;
  /// Model ids this chip serves, ascending. Empty = hosts every model
  /// (full replication, the planner's default placement).
  std::vector<int> hosted_models;

  /// True when this chip serves `model`.
  bool hosts(int model) const;

  /// Compact stable label, e.g. "c4v2048l16i4" (cores, vlen bits, shared L2
  /// MB, instances) — keys per-chip JSON and obs sink blocks.
  std::string short_label() const;
};

/// A chip with its per-model batch cost models resolved (one BatchCostModel
/// per model id, from batch_cost_model() at the chip's vlen/L2 slice) and its
/// silicon area. The event loop never touches the sweep driver: callers
/// resolve costs up front, so simulate_fleet() is a pure function of its
/// inputs.
struct FleetChip {
  ChipSpec spec;
  /// Indexed by model id; size = number of models in the mix. Entries for
  /// models the chip does not host are never read.
  std::vector<BatchCostModel> costs;
  /// Optional per-model ServiceModels indexed like `costs` (not owned; one
  /// per (chip, model) queue, since models may be stateful). A non-null entry
  /// overrides that `costs` entry and owns its validation — the learned
  /// dispatcher's hook. Empty = every hosted model uses `costs`.
  std::vector<ServiceModel*> services;
  double area_mm2 = 0;  ///< AreaModel::chip_mm2 of spec.point
};

/// Seeded multi-model traffic mix: request `seq` (1-based fleet arrival
/// order) is model pick(seq). The draw is a pure function of (seed, seq) —
/// independent of thread count and of every other request — so the per-model
/// request stream is reproducible and stable under fleet recomposition.
struct FleetTrafficMix {
  std::vector<std::string> names;  ///< model names ("vgg16", "yolo20", ...)
  std::vector<double> shares;      ///< positive weights, same size as names
  std::uint64_t seed = 1;          ///< mix draw seed

  /// The model id serving request `seq` (1-based). Throws
  /// std::invalid_argument on an empty or inconsistent mix.
  int pick(std::uint64_t seq) const;

  /// Normalized stable rendering, e.g. "vgg16=0.70,yolo20=0.30".
  std::string to_string() const;
};

/// Per-request fleet attribution, appended to FleetConfig::request_log in
/// completion order. `rec.arrival` is the *fleet* arrival (before the router
/// hop), so the extended identity holds:
///   (router_hop + (rec.queue_wait + rec.formation_wait)) + rec.service
///     == rec.completion - rec.arrival, left-to-right, bit-exactly.
struct FleetRequestRecord {
  int model = 0;          ///< mix model id
  int chip = 0;           ///< serving chip index
  double router_hop = 0;  ///< front-end hop span, cycles (exact-split share)
  RequestRecord rec;      ///< single-chip-shaped attribution (fleet arrival)
};

/// Per-model slice of a fleet run: the latency/SLO experience one traffic
/// class saw across every chip that served it. Latencies are fleet latencies
/// (completion - fleet arrival, hop included).
struct FleetModelStats {
  std::string name;
  std::uint64_t offered = 0, completed = 0, dropped = 0;
  double p50 = 0, p99 = 0, p999 = 0;  ///< cycles
  double mean_latency = 0;            ///< cycles
  double slo_attainment = 1;          ///< within-SLO completions / offered
};

/// One fleet simulation's results. `fleet` aggregates every request at the
/// fleet level (latency = completion - fleet arrival; mean_wait includes the
/// router hop; utilization and mean_queue are normalized over all instances
/// and the fleet makespan). `per_chip[i]` is the same ServingStats shape
/// scoped to chip i's requests — its makespan is the *fleet* makespan so
/// utilizations compare across chips, and its mean_queue_wait /
/// mean_formation_wait / mean_service cover only the on-chip spans (the hop
/// is a fleet-level span, reported via mean_router_hop).
struct FleetStats {
  ServingStats fleet;
  double mean_router_hop = 0;          ///< mean hop span, cycles
  double total_area_mm2 = 0;           ///< sum of chip areas
  std::vector<ServingStats> per_chip;  ///< chip order = FleetConfig::chips
  std::vector<FleetModelStats> per_model;  ///< mix model order
  std::vector<std::string> chip_labels;    ///< ChipSpec::short_label per chip

  /// Canonical byte-stable rendering (%.17g doubles, fixed key order, no
  /// wall-clock fields) — what the fleet determinism guarantee is stated
  /// over; the vlacnn.fleet.v1 payload embeds it verbatim.
  std::string to_json() const;
};

/// Static configuration of one fleet simulation.
struct FleetConfig {
  std::vector<FleetChip> chips;  ///< at least one; every model needs a host
  FleetTrafficMix mix;
  RouterSpec router;
  BatchPolicySpec policy;          ///< one fresh policy per (chip, model)
  std::size_t queue_capacity = 0;  ///< per-chip waiting-room bound; 0 = none
  double slo_cycles = 0;           ///< latency deadline; 0 = off
  double router_hop_cycles = 0;    ///< constant front-end network hop, >= 0
  double attainment_target = 0.99; ///< SLO burn-rate budget (timeline only)

  /// When set, the loop appends one FleetRequestRecord per *completed*
  /// request (drops produce no record). Product output, always filled.
  std::vector<FleetRequestRecord>* request_log = nullptr;

  /// Caller-owned recorders, RequestSimConfig's hooks lifted fleet-wide: the
  /// loop feeds each one every chip's events, calls finish(), and sinks
  /// nothing (size a timeline recorder with the fleet's total instances).
  /// When null and the knob is on, the loop owns one timeline recorder per
  /// chip and one trace recorder, and sinks them under `label`.
  obs::TimelineRecorder* timeline = nullptr;
  obs::RequestTraceRecorder* reqtrace = nullptr;

  /// Label prefix for the loop's own sink blocks (timeline blocks are
  /// recorded per chip as "<label>/chip<ii>", the request-trace block as
  /// "<label>"). Empty = sink auto-labels; parallel drivers (the fleet
  /// planner) must label.
  std::string label;

  /// Expected simulated horizon in cycles (requests * mean interarrival),
  /// which bounds the loop's own timeline cadence (chip_timeline_config).
  /// 0 = use the default cadence as-is.
  double expected_horizon_cycles = 0;
};

/// Run the fleet event loop to exhaustion: every arrival the process
/// produces is routed, then served or dropped, and all in-flight batches and
/// in-transit hops drain. Deterministic (see file header); single-threaded —
/// callers parallelize across *fleets*. Throws std::invalid_argument on an
/// inconsistent config (no chips, hostless model, bad mix/costs, negative
/// hop). ~O(requests * (chips * models + log instances)).
FleetStats simulate_fleet(const FleetConfig& cfg, ArrivalProcess& arrivals);

/// One chip's timeline config: default_timeline_config plus the attainment
/// target and — when the horizon is positive and VLACNN_TIMELINE_INTERVAL
/// was not pinned — a cadence coarsened to ~256 snapshots over it (a pure
/// function of the query). The loop's own recorders and the capacity
/// planner's both use it.
obs::TimelineConfig chip_timeline_config(int instances, double slo_cycles,
                                         double attainment_target,
                                         double expected_horizon_cycles);

}  // namespace vlacnn::serving
