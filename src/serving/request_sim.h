// Request-level serving simulator and SLO capacity planner.
//
// Layers what users actually experience — queueing delay, tail latency, SLO
// attainment under bursty traffic — on top of the steady-state co-location
// simulator (serving.h). simulate_requests runs the repo's one serving event
// loop (fleet.h) as a one-chip, one-model, zero-hop fleet: simulated time is
// a cycle counter (no wall clock), arrivals come from seeded processes
// (arrivals.h), batches are cut by pluggable policies (batching.h), and each
// instance's service time per image comes from the same SweepDriver
// per-layer cycle model every figure is built from. Same seed + same grid ⇒
// byte-identical stats, regardless of VLACNN_THREADS (the planner writes
// independent sims into pre-sized slots).
//
// Units: all latencies and timestamps are **cycles**; ServingStats converts
// to milliseconds only at a caller-supplied clock (2 GHz everywhere else in
// the repo). Percentiles are nearest-rank on the exact per-request cycle
// values — no interpolation, so a percentile is always a latency some
// simulated request actually saw (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/exact_split.h"
#include "serving/arrivals.h"
#include "serving/batching.h"
#include "serving/serving.h"

namespace vlacnn {
class ThreadPool;
}

namespace vlacnn::obs {
class TimelineRecorder;
class RequestTraceRecorder;
struct TraceNote;
}

namespace vlacnn::serving {

/// Deterministic service-time model for one model instance running a batch:
///   service_cycles(b) = first_image_cycles + (b - 1) * marginal_image_cycles.
/// first >= marginal encodes why batching helps at all in a deterministic
/// cost model: the first image of a batch streams the network's weights from
/// DRAM, later images in the same batch reuse them from cache.
struct BatchCostModel {
  double first_image_cycles = 0;     ///< cycles for a batch of one
  double marginal_image_cycles = 0;  ///< added cycles per extra image

  /// The model of a network that takes `per_image_cycles` per image, of which
  /// `weight_cycles` stream its weights from DRAM: later images of a batch
  /// skip that share, clamped to half the per-image cost so a pathological
  /// model never yields near-zero marginal cost.
  static BatchCostModel amortizing(double per_image_cycles,
                                   double weight_cycles) {
    return {per_image_cycles,
            per_image_cycles - std::min(weight_cycles, 0.5 * per_image_cycles)};
  }

  double service_cycles(int batch) const {
    return first_image_cycles +
           static_cast<double>(batch - 1) * marginal_image_cycles;
  }
};

/// The cost model of `net` at `per_image_cycles` (instance_cycles),
/// amortizing its conv-weight footprint streamed at MemConfig's DRAM rate.
BatchCostModel batch_cost_model(const Network& net, double per_image_cycles);

/// The same model for one hardware point, its per-image cycles looked up
/// through instance_cycles at (vlen, L2 slice). Thread-safe (SweepDriver is).
BatchCostModel batch_cost_model(SweepDriver& driver, const Network& net,
                                std::uint32_t vlen_bits,
                                std::uint64_t l2_slice_bytes,
                                std::optional<Algo> fixed);

/// Per-batch service-time source for the event loop. The fixed/oracle path
/// wraps a BatchCostModel; the learned dispatcher (src/dispatch) re-plans the
/// per-layer algorithm choice on every call. Models may be stateful — the
/// loop calls service_cycles() exactly once per dispatched batch, in the
/// deterministic event order — but are not thread-safe: one model per
/// simulation, like the arrival process.
class ServiceModel {
 public:
  virtual ~ServiceModel() = default;

  /// Cycles one instance needs to serve a batch of `batch` images (>= 1).
  /// Must return a positive, finite value.
  virtual double service_cycles(int batch) = 0;

  /// Append key=value notes describing the *most recent* service_cycles()
  /// decision (chosen plan, exploration state, selector charge...). The
  /// request tracer (obs/reqtrace.h) attaches them to every request of the
  /// batch; called at most once per dispatch, and only when a trace recorder
  /// is active — never on the no-obs path. Default: no notes.
  virtual void trace_annotations(std::vector<obs::TraceNote>& out);
};

/// ServiceModel over a fixed BatchCostModel — stateless, the pre-dispatch
/// behaviour of simulate_requests.
class FixedServiceModel final : public ServiceModel {
 public:
  explicit FixedServiceModel(const BatchCostModel& cost) : cost_(cost) {}
  double service_cycles(int batch) override {
    return cost_.service_cycles(batch);
  }

 private:
  BatchCostModel cost_;
};

/// Total fp32 conv-weight bytes of a network (the per-batch amortizable DRAM
/// traffic in the cost model above).
double conv_weight_bytes(const Network& net);

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample (1-indexed) of
/// an ascending, non-empty vector; q in (0, 1]. Exact — the result is always
/// one of the samples, never an interpolation. Throws std::invalid_argument
/// on an empty vector or q outside (0, 1].
double nearest_rank(const std::vector<double>& sorted_ascending, double q);

/// The 0-based index nearest_rank() selects for a sample of size n, exposed
/// so rank arithmetic is testable at any n without materialising a vector.
/// Throws std::invalid_argument when n == 0 or q is outside (0, 1].
std::size_t nearest_rank_index(std::size_t n, double q);

/// Per-request latency attribution, appended to RequestSimConfig::request_log
/// in completion order (batch members in FIFO order within a batch). The
/// decomposition is exact by construction:
///   (queue_wait + formation_wait) + service == completion - arrival
/// evaluated left-to-right in floating point (see common/exact_split.h).
/// queue_wait is the share of the pre-dispatch wait during which *all*
/// instances were busy (true capacity queueing); formation_wait is the share
/// with an instance idle — time the batching policy chose to hold the
/// request back.
struct RequestRecord {
  double arrival = 0;         ///< cycles: joined the queue
  double dispatch = 0;        ///< cycles: batch started
  double completion = 0;      ///< cycles: batch finished
  double queue_wait = 0;      ///< all-instances-busy share of the wait
  double formation_wait = 0;  ///< instance-idle (policy) share of the wait
  double service = 0;         ///< in-service cycles
  bool within_slo = true;     ///< latency <= slo_cycles (true when no SLO)
};

/// One simulation's request-level results. All latency fields are in cycles;
/// use ms() to render at a clock. Counts: offered = completed + dropped once
/// the loop drains (open-loop processes always drain; closed-loop by
/// construction).
struct ServingStats {
  std::uint64_t offered = 0;    ///< arrivals reaching the queue (or dropped)
  std::uint64_t completed = 0;  ///< requests served to completion
  std::uint64_t dropped = 0;    ///< rejected: queue at capacity on arrival
  std::uint64_t batches = 0;    ///< dispatches executed
  double mean_batch = 0;        ///< completed / batches

  double p50 = 0, p95 = 0, p99 = 0, p999 = 0;  ///< latency, cycles
  double mean_latency = 0, max_latency = 0;    ///< latency, cycles
  double mean_wait = 0;                        ///< queueing delay, cycles

  /// Mean latency attribution (cycles): where a request's time actually went.
  /// Per request the three components sum exactly to its latency (see
  /// RequestRecord); the means are each component's sum / completed.
  double mean_queue_wait = 0;      ///< all-instances-busy wait
  double mean_formation_wait = 0;  ///< batching-policy (instance-idle) wait
  double mean_service = 0;         ///< in-service time
  double makespan = 0;          ///< last completion (or arrival), cycles
  double mean_queue = 0;        ///< time-weighted queue depth
  double max_queue = 0;         ///< peak queue depth
  double utilization = 0;       ///< busy instance-cycles / (instances*makespan)

  double slo = 0;               ///< deadline in cycles (0 = none given)
  double slo_attainment = 1;    ///< completed within slo / offered; drops miss

  /// cycles -> milliseconds at `clock_hz`.
  static double ms(double cycles, double clock_hz) {
    return cycles / clock_hz * 1e3;
  }
  /// Served requests per second at `clock_hz` over the makespan.
  double throughput_rps(double clock_hz) const;

  /// Canonical byte-stable rendering (%.17g doubles, fixed key order, no
  /// wall-clock fields) — what the determinism guarantee is stated over.
  std::string to_json() const;
};

/// Static configuration of one request-level simulation.
struct RequestSimConfig {
  int instances = 1;              ///< parallel model instances (servers)
  BatchCostModel cost;            ///< per-instance batch service time
  /// When set, overrides `cost` as the per-batch service-time source (not
  /// owned; must outlive the simulation). The fixed-cost validation is the
  /// model's own responsibility in that case.
  ServiceModel* service = nullptr;
  std::size_t queue_capacity = 0; ///< waiting-room bound; 0 = unbounded
  double slo_cycles = 0;          ///< latency deadline for attainment; 0 = off

  /// Caller-owned recorders (obs/timeline.h, obs/reqtrace.h): the loop
  /// drives each one, calls finish(), and sinks nothing — the capacity
  /// planner labels its blocks by grid point this way. When null and the
  /// VLACNN_TIMELINE / VLACNN_REQTRACE knob is on, the loop owns a recorder
  /// (default config, no per-layer trace segments) and sinks its block under
  /// the label (auto-sequenced when empty — parallel drivers must label).
  obs::TimelineRecorder* timeline = nullptr;
  std::string timeline_label;
  obs::RequestTraceRecorder* reqtrace = nullptr;
  std::string reqtrace_label;

  /// When set, the loop appends one RequestRecord per *completed* request
  /// (drops produce no record). Not an obs hook: the log is product output
  /// and is filled by simulate_requests_no_obs too.
  std::vector<RequestRecord>* request_log = nullptr;
};

/// Run the serving loop (fleet.h) to exhaustion as a one-chip, one-model,
/// zero-hop fleet driven by the caller's `policy`: every arrival is served or
/// dropped, and all in-flight batches complete. Deterministic: event order is
/// (time, completions < arrivals < flushes, FIFO seq). Single-threaded —
/// callers parallelize across *simulations*. ~O(requests * log instances).
ServingStats simulate_requests(const RequestSimConfig& cfg,
                               ArrivalProcess& arrivals,
                               BatchingPolicy& policy);

/// The same loop's no-obs instantiation (every metrics, trace, timeline and
/// request-trace hook compiled out) — the baseline side of
/// bench_obs_overhead's serving gate. Identical ServingStats and request_log;
/// the recorder hooks are ignored.
ServingStats simulate_requests_no_obs(const RequestSimConfig& cfg,
                                      ArrivalProcess& arrivals,
                                      BatchingPolicy& policy);

/// A capacity-planning question: can a configuration carry `load_rps` of
/// Poisson traffic while `attainment_target` of requests finish within
/// `slo_ms`? Cycle budget = slo_ms at clock_hz.
struct CapacityQuery {
  double load_rps = 1000;
  double slo_ms = 50;
  double attainment_target = 0.99;
  std::uint64_t requests = 2000;  ///< simulated request count per point
  std::uint64_t seed = 42;        ///< arrival-process seed (shared per point)
  double clock_hz = 2e9;
  double area_budget_mm2 = 0;     ///< 0 = unbounded
  BatchPolicySpec policy{BatchPolicySpec::Kind::kAdaptive, 8, 0};
  std::size_t queue_capacity = 0;
};

/// One grid point's verdict: the steady-state evaluation (area, per-image
/// cycles) plus the request-level stats under the query's load.
struct CapacityCandidate {
  ServingEval eval;
  ServingStats stats;
  bool meets_slo = false;  ///< attainment >= target (and under budget, if set)
};

/// Builds one fresh ServiceModel per simulated grid point. The planner calls
/// it from pool workers, so the factory must be thread-safe (the models it
/// returns need not be — each is used by exactly one simulation). Keeps the
/// serving layer ignorant of how service times are produced: the learned
/// dispatcher plugs in here without request_sim depending on src/dispatch.
using ServiceModelFactory =
    std::function<std::unique_ptr<ServiceModel>(const ServingPoint&)>;

/// Searches the Fig-12 co-location grid for configurations that meet a
/// latency SLO at a target load, and picks the cheapest (area mm²) one.
/// Thread-safe const API; grid evaluation fans out per simulation.
class CapacityPlanner {
 public:
  explicit CapacityPlanner(SweepDriver* driver, AreaModel area = {})
      : sim_(driver, area), driver_(driver) {}

  /// Evaluate every feasible Fig-12 grid point under the query's Poisson
  /// load. Results are in the deterministic grid enumeration order and each
  /// point's stats depend only on (point, query) — byte-identical across
  /// thread counts. A point's simulation reads only its cost model (a
  /// function of vlen and L2 slice), its instance count and the query, so
  /// one simulation per distinct (vlen, L2 slice, instances) serves every
  /// point that shares it: 56 for the grid's 160 points, each still
  /// published as its own candidate, sink blocks and report cells. `pool`
  /// overrides the shared pool (tests pin sizes 1 vs 8); nullptr uses
  /// ThreadPool::shared().
  std::vector<CapacityCandidate> evaluate_grid(const Network& net,
                                               const CapacityQuery& q,
                                               std::optional<Algo> fixed,
                                               ThreadPool* pool = nullptr) const;

  /// Same grid search, with per-batch service times from `factory` instead of
  /// the fixed oracle cost model (the learned-dispatch path). The steady-state
  /// eval side (area, cycles_per_image) still reports the per-layer-optimal
  /// oracle, so a candidate's stats can be read against the oracle baseline.
  /// One simulation per point: a factory may read any field of the point.
  std::vector<CapacityCandidate> evaluate_grid(const Network& net,
                                               const CapacityQuery& q,
                                               const ServiceModelFactory& factory,
                                               ThreadPool* pool = nullptr) const;

  /// Evaluate one explicit configuration under the query's load.
  CapacityCandidate evaluate(const Network& net, const ServingPoint& point,
                             const CapacityQuery& q,
                             std::optional<Algo> fixed) const;

  /// Evaluate one configuration with a factory-built service model.
  CapacityCandidate evaluate(const Network& net, const ServingPoint& point,
                             const CapacityQuery& q,
                             const ServiceModelFactory& factory) const;

  /// The cheapest (smallest area, ties by enumeration order) candidate with
  /// meets_slo; nullopt when none qualifies.
  static std::optional<CapacityCandidate> cheapest(
      const std::vector<CapacityCandidate>& candidates);

 private:
  ServingSimulator sim_;
  SweepDriver* driver_;
};

}  // namespace vlacnn::serving
