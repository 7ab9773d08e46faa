#include "serving/request_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.h"
#include "algos/conv_args.h"
#include "obs/log.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/collector.h"
#include "report/json.h"
#include "serving/fleet.h"

namespace vlacnn::serving {

namespace {

/// Per-conv-layer (label, cycles-per-image) weights for the request tracer's
/// service-span segmentation at one grid point: the per-layer cycles of the
/// plan this point actually serves (the fixed algorithm with the gemm6
/// fallback, or the per-layer-optimal plan). Labels are "conv<1-based>/<algo>"
/// so a waterfall names both the layer and the algorithm that ran it. Warm
/// sweep cache ⇒ pure lookups.
std::vector<std::pair<std::string, double>> reqtrace_service_layers(
    SweepDriver& driver, const Network& net, std::uint32_t vlen_bits,
    std::uint64_t l2_slice_bytes, std::optional<Algo> fixed) {
  const auto table = driver.layer_algo_cycles(net, vlen_bits, l2_slice_bytes);
  std::vector<Algo> plan;
  if (fixed.has_value()) {
    plan.assign(table.size(), *fixed);
  } else {
    plan = driver.network_optimal(net, vlen_bits, l2_slice_bytes).plan;
  }
  const auto algo_index = [](Algo a) {
    for (std::size_t i = 0; i < kAllAlgos.size(); ++i) {
      if (kAllAlgos[i] == a) return i;
    }
    return std::size_t{0};
  };
  std::vector<std::pair<std::string, double>> out;
  out.reserve(table.size());
  for (std::size_t l = 0; l < table.size(); ++l) {
    Algo a = l < plan.size() ? plan[l] : Algo::kGemm6;
    double c = table[l][algo_index(a)];
    if (std::isnan(c)) {  // fixed algo inapplicable here: the gemm6 fallback
      a = Algo::kGemm6;
      c = table[l][algo_index(a)];
    }
    char name[32];
    std::snprintf(name, sizeof name, "conv%zu/%s", l + 1, to_string(a));
    out.emplace_back(name, std::isnan(c) ? 0.0 : c);
  }
  return out;
}

/// Shared body of both evaluate_grid() flavours: `eval` over every grid
/// point, fanned out into pre-sized slots. `dispatch` labels the obs span.
std::vector<CapacityCandidate> evaluate_points(
    const Network& net, const CapacityQuery& q, const char* dispatch,
    ThreadPool* pool,
    const std::function<CapacityCandidate(const ServingPoint&)>& eval) {
  const std::vector<ServingPoint> points = ServingSimulator::grid_points();
  obs::Span span("serving.capacity_grid");
  if (span.active()) {
    span.arg("net", net.name());
    span.arg("points", std::to_string(points.size()));
    span.arg("load_rps", std::to_string(q.load_rps));
    span.arg("requests", std::to_string(q.requests));
    span.arg("dispatch", dispatch);
  }
  obs::log(obs::LogLevel::kInfo, "serving", "capacity_grid",
           {{"net", net.name()},
            {"points", std::to_string(points.size())},
            {"load_rps", std::to_string(q.load_rps)},
            {"dispatch", dispatch}});
  // One task per point into its pre-sized slot: each simulation depends only
  // on (point, query) — a factory-built service model only on the point — so
  // the result vector is byte-identical whether the pool has 1 worker or 64
  // (§7's guarantee, extended to request-level stats).
  std::vector<CapacityCandidate> out(points.size());
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(points.size(),
                 [&](std::size_t i) { out[i] = eval(points[i]); });
  return out;
}

}  // namespace

BatchCostModel batch_cost_model(SweepDriver& driver, const Network& net,
                                std::uint32_t vlen_bits,
                                std::uint64_t l2_slice_bytes,
                                std::optional<Algo> fixed) {
  double per_image = 0;
  if (fixed.has_value()) {
    per_image = driver.network_cycles(net, *fixed, vlen_bits, l2_slice_bytes);
  } else {
    per_image = driver.network_optimal(net, vlen_bits, l2_slice_bytes).cycles;
  }
  return BatchCostModel::amortizing(
      per_image, conv_weight_bytes(net) / MemConfig{}.mem_bytes_per_cycle);
}

void ServiceModel::trace_annotations(std::vector<obs::TraceNote>&) {}

double conv_weight_bytes(const Network& net) {
  double bytes = 0;
  for (const ConvLayerDesc& d : net.conv_descs()) {
    bytes += 4.0 * d.oc * d.ic * d.kh * d.kw;
  }
  return bytes;
}

std::size_t nearest_rank_index(std::size_t n, double q) {
  if (n == 0) {
    throw std::invalid_argument("nearest_rank: empty sample");
  }
  if (!(q > 0.0) || q > 1.0) {
    throw std::invalid_argument("nearest_rank: q must be in (0, 1]");
  }
  // ceil(q*n) with a *relative* epsilon guard so q values that are exact in
  // decimal but not in binary (0.2 * 10 etc.) cannot round one rank up. The
  // guard must scale with q*n: an absolute one (the old `- 1e-9`) is smaller
  // than one ulp of q*n once n exceeds ~1e7, and stops guarding anything.
  // 1e-12 is ~4 decimal orders above the relative rounding error of the
  // multiply (~1e-16) and well below the 1/n gap between adjacent ranks for
  // any sample a simulation can hold.
  const double scaled = q * static_cast<double>(n);
  std::size_t rank = static_cast<std::size_t>(std::ceil(scaled * (1.0 - 1e-12)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

double nearest_rank(const std::vector<double>& sorted_ascending, double q) {
  return sorted_ascending[nearest_rank_index(sorted_ascending.size(), q)];
}

double ServingStats::throughput_rps(double clock_hz) const {
  if (!(makespan > 0)) return 0;
  return static_cast<double>(completed) / makespan * clock_hz;
}

std::string ServingStats::to_json() const {
  using report::json_number;
  std::string out = "{";
  out += "\"offered\": " + std::to_string(offered);
  out += ", \"completed\": " + std::to_string(completed);
  out += ", \"dropped\": " + std::to_string(dropped);
  out += ", \"batches\": " + std::to_string(batches);
  out += ", \"mean_batch\": " + json_number(mean_batch);
  out += ", \"p50\": " + json_number(p50);
  out += ", \"p95\": " + json_number(p95);
  out += ", \"p99\": " + json_number(p99);
  out += ", \"p999\": " + json_number(p999);
  out += ", \"mean_latency\": " + json_number(mean_latency);
  out += ", \"max_latency\": " + json_number(max_latency);
  out += ", \"mean_wait\": " + json_number(mean_wait);
  out += ", \"mean_queue_wait\": " + json_number(mean_queue_wait);
  out += ", \"mean_formation_wait\": " + json_number(mean_formation_wait);
  out += ", \"mean_service\": " + json_number(mean_service);
  out += ", \"makespan\": " + json_number(makespan);
  out += ", \"mean_queue\": " + json_number(mean_queue);
  out += ", \"max_queue\": " + json_number(max_queue);
  out += ", \"utilization\": " + json_number(utilization);
  out += ", \"slo\": " + json_number(slo);
  out += ", \"slo_attainment\": " + json_number(slo_attainment);
  out += "}";
  return out;
}

CapacityCandidate CapacityPlanner::simulate_point(const Network& net,
                                                  const ServingPoint& point,
                                                  const CapacityQuery& q,
                                                  std::optional<Algo> eval_fixed,
                                                  RequestSimConfig rc) const {
  CapacityCandidate c;
  c.eval = sim_.evaluate(net, point, eval_fixed);

  rc.instances = point.instances;
  rc.queue_capacity = q.queue_capacity;
  rc.slo_cycles = q.slo_ms * 1e-3 * q.clock_hz;

  PoissonArrivals arrivals(q.clock_hz / q.load_rps, q.requests, q.seed);
  const auto policy = make_policy(q.policy);

  // The planner owns its timeline recorder so the sink block gets a
  // grid-point-derived label: the sink's sorted-by-label write is what makes
  // the JSONL byte-identical across VLACNN_THREADS even though pool workers
  // finish points in arbitrary order.
  std::unique_ptr<obs::TimelineRecorder> rec;
  if (obs::timeline_enabled()) {
    rec = std::make_unique<obs::TimelineRecorder>(chip_timeline_config(
        point.instances, rc.slo_cycles, q.attainment_target,
        q.requests * (q.clock_hz / q.load_rps)));
    rc.timeline = rec.get();
  }

  // Same ownership story for the request tracer: the planner's recorder gets
  // the point's per-layer service weights so every sampled trace carries a
  // per-layer waterfall, and its sink block gets the grid-point label below.
  std::unique_ptr<obs::RequestTraceRecorder> rtrec;
  if (obs::reqtrace_enabled()) {
    obs::ReqTraceConfig rtc = obs::default_reqtrace_config(rc.slo_cycles);
    rtc.service_layers = reqtrace_service_layers(
        *driver_, net, point.vlen_bits, point.l2_slice_bytes(), eval_fixed);
    rtrec = std::make_unique<obs::RequestTraceRecorder>(rtc);
    rc.reqtrace = rtrec.get();
  }

  c.stats = simulate_requests(rc, arrivals, *policy);
  c.meets_slo =
      c.stats.slo_attainment >= q.attainment_target &&
      (q.area_budget_mm2 <= 0 || c.eval.area_mm2 <= q.area_budget_mm2);

  char label[160];
  std::snprintf(label, sizeof label, "cores%d/vlen%u/l2:%llu/inst%d/%s/%s",
                point.cores, point.vlen_bits,
                static_cast<unsigned long long>(point.l2_total_bytes),
                point.instances, policy->name().c_str(), arrivals.name());
  if (rtrec != nullptr) {
    // The loop already called finish(); the same grid-point label keys both
    // sinks, so the two JSONL files cross-reference by label.
    obs::ReqTraceSink::global().record(label, rtrec->to_jsonl());
  }
  if (rec != nullptr) {
    obs::TimelineSink::global().record(label, rec->to_jsonl());
  }

  if (report::enabled()) {
    // The grid point and labels lead both cells: they are the collector key.
    report::Json cell;
    cell.add("cores", point.cores)
        .add("vlen_bits", point.vlen_bits)
        .add("l2_total_bytes", point.l2_total_bytes)
        .add("instances", point.instances)
        .add("policy", policy->name())
        .add("arrivals", arrivals.name());
    if (rec != nullptr) {
      const obs::TimelineAnalysis ta =
          obs::analyze_timeline(rec->snapshots(), rec->alerts());
      report::Json tc = cell;
      tc.add("snapshots", rec->snapshots().size())
          .add("interval_cycles", rec->config().interval_cycles)
          .add("alerts", ta.alert_count)
          .add("warmup_cycles", ta.warmup_end_cycles)
          .add("steady_p99", ta.final_rolling_p99)
          .add("max_burn_rate", ta.max_burn_rate)
          .add("time_in_alert_cycles", ta.time_in_alert_cycles);
      report::Collector::global().record(report::Section::kTimeline,
                                         {std::move(tc)});
    }
    cell.add("load_rps", q.load_rps)
        .add("slo_cycles", rc.slo_cycles)
        .add("offered", c.stats.offered)
        .add("completed", c.stats.completed)
        .add("dropped", c.stats.dropped)
        .add("p50", c.stats.p50)
        .add("p95", c.stats.p95)
        .add("p99", c.stats.p99)
        .add("p999", c.stats.p999)
        .add("mean_latency", c.stats.mean_latency)
        .add("utilization", c.stats.utilization)
        .add("mean_queue", c.stats.mean_queue)
        .add("slo_attainment", c.stats.slo_attainment)
        .add("mean_queue_wait", c.stats.mean_queue_wait)
        .add("mean_formation_wait", c.stats.mean_formation_wait)
        .add("mean_service", c.stats.mean_service);
    report::Collector::global().record(report::Section::kRequestSim,
                                       {std::move(cell)});
  }
  return c;
}

CapacityCandidate CapacityPlanner::evaluate(const Network& net,
                                            const ServingPoint& point,
                                            const CapacityQuery& q,
                                            std::optional<Algo> fixed) const {
  if (!(q.load_rps > 0) || !(q.slo_ms > 0) || !(q.clock_hz > 0)) {
    throw std::invalid_argument(
        "CapacityPlanner: load, SLO, and clock must be positive");
  }
  RequestSimConfig rc;
  rc.cost = batch_cost_model(*driver_, net, point.vlen_bits,
                             point.l2_slice_bytes(), fixed);
  return simulate_point(net, point, q, fixed, rc);
}

CapacityCandidate CapacityPlanner::evaluate(
    const Network& net, const ServingPoint& point, const CapacityQuery& q,
    const ServiceModelFactory& factory) const {
  if (!(q.load_rps > 0) || !(q.slo_ms > 0) || !(q.clock_hz > 0)) {
    throw std::invalid_argument(
        "CapacityPlanner: load, SLO, and clock must be positive");
  }
  if (!factory) {
    throw std::invalid_argument("CapacityPlanner: empty service factory");
  }
  // The model lives exactly as long as the simulation; a model with an
  // end-of-run side effect (the learned dispatcher records its dispatch cell
  // on destruction) fires it here, after the stats are final.
  std::unique_ptr<ServiceModel> model = factory(point);
  if (model == nullptr) {
    throw std::invalid_argument("CapacityPlanner: factory returned null");
  }
  RequestSimConfig rc;
  rc.service = model.get();
  // eval_fixed = nullopt: the steady-state side reports the oracle per-image
  // cycles, the natural baseline to read a learned candidate's stats against.
  return simulate_point(net, point, q, std::nullopt, rc);
}

std::vector<CapacityCandidate> CapacityPlanner::evaluate_grid(
    const Network& net, const CapacityQuery& q, std::optional<Algo> fixed,
    ThreadPool* pool) const {
  return evaluate_points(net, q, fixed ? to_string(*fixed) : "oracle", pool,
                         [&](const ServingPoint& p) {
                           return evaluate(net, p, q, fixed);
                         });
}

std::vector<CapacityCandidate> CapacityPlanner::evaluate_grid(
    const Network& net, const CapacityQuery& q,
    const ServiceModelFactory& factory, ThreadPool* pool) const {
  return evaluate_points(net, q, "factory", pool,
                         [&](const ServingPoint& p) {
                           return evaluate(net, p, q, factory);
                         });
}

std::optional<CapacityCandidate> CapacityPlanner::cheapest(
    const std::vector<CapacityCandidate>& candidates) {
  std::optional<CapacityCandidate> best;
  for (const CapacityCandidate& c : candidates) {
    if (!c.meets_slo) continue;
    if (!best.has_value() || c.eval.area_mm2 < best->eval.area_mm2) best = c;
  }
  return best;
}

}  // namespace vlacnn::serving
