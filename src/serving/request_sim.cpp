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

double slo_cycles(const CapacityQuery& q) {
  return q.slo_ms * 1e-3 * q.clock_hz;
}

void require_valid(const CapacityQuery& q) {
  if (!(q.load_rps > 0) || !(q.slo_ms > 0) || !(q.clock_hz > 0)) {
    throw std::invalid_argument(
        "CapacityPlanner: load, SLO, and clock must be positive");
  }
}

/// Opens a grid evaluation's obs span and log line. `dispatch` labels both.
void announce_grid(obs::Span& span, const Network& net, const CapacityQuery& q,
                   std::size_t points, const char* dispatch) {
  if (span.active()) {
    span.arg("net", net.name());
    span.arg("points", std::to_string(points));
    span.arg("load_rps", std::to_string(q.load_rps));
    span.arg("requests", std::to_string(q.requests));
    span.arg("dispatch", dispatch);
  }
  obs::log(obs::LogLevel::kInfo, "serving", "capacity_grid",
           {{"net", net.name()},
            {"points", std::to_string(points)},
            {"load_rps", std::to_string(q.load_rps)},
            {"dispatch", dispatch}});
}

/// One request-level simulation and what it fed: the stats, the finished
/// service model when a factory built one and, with a sink knob on, the
/// finished recorders' blocks. Every grid point that shares the simulation
/// publishes these under its own label.
struct PointRun {
  ServingStats stats;
  std::string policy;    ///< batching policy name, for labels and cells
  std::string arrivals;  ///< arrival process name, likewise
  std::unique_ptr<ServiceModel> model;              ///< null on the fixed path
  std::unique_ptr<obs::TimelineRecorder> timeline;  ///< null when off
  std::string timeline_block, reqtrace_block;       ///< "" when off
};

/// Run the request-level sim of `point` (instances, and for the request
/// tracer its vlen and L2 slice) under the query's load, with `model` as the
/// service source when set and `rc`'s fixed cost otherwise. `plan_fixed`
/// names the plan the tracer's per-layer waterfall splits service time by.
PointRun run_point(SweepDriver& driver, const Network& net,
                   const ServingPoint& point, const CapacityQuery& q,
                   std::optional<Algo> plan_fixed, RequestSimConfig rc,
                   std::unique_ptr<ServiceModel> model = nullptr) {
  rc.instances = point.instances;
  rc.queue_capacity = q.queue_capacity;
  rc.slo_cycles = slo_cycles(q);
  rc.service = model.get();

  PoissonArrivals arrivals(q.clock_hz / q.load_rps, q.requests, q.seed);
  const auto policy = make_policy(q.policy);
  PointRun run;
  run.policy = policy->name();
  run.arrivals = arrivals.name();

  // The planner owns its recorders so each sink block gets a grid-point
  // label (publish_point): the sink's sorted-by-label write is what makes
  // the JSONL byte-identical across VLACNN_THREADS even though pool workers
  // finish simulations in arbitrary order.
  if (obs::timeline_enabled()) {
    run.timeline = std::make_unique<obs::TimelineRecorder>(chip_timeline_config(
        point.instances, rc.slo_cycles, q.attainment_target,
        q.requests * (q.clock_hz / q.load_rps)));
    rc.timeline = run.timeline.get();
  }
  // The request tracer gets the point's per-layer service weights so every
  // sampled trace carries a per-layer waterfall.
  std::unique_ptr<obs::RequestTraceRecorder> rtrec;
  if (obs::reqtrace_enabled()) {
    obs::ReqTraceConfig rtc = obs::default_reqtrace_config(rc.slo_cycles);
    rtc.service_layers = reqtrace_service_layers(
        driver, net, point.vlen_bits, point.l2_slice_bytes(), plan_fixed);
    rtrec = std::make_unique<obs::RequestTraceRecorder>(rtc);
    rc.reqtrace = rtrec.get();
  }

  // The loop calls finish() on both recorders.
  run.stats = simulate_requests(rc, arrivals, *policy);
  run.model = std::move(model);
  if (rtrec != nullptr) run.reqtrace_block = rtrec->to_jsonl();
  if (run.timeline != nullptr) run.timeline_block = run.timeline->to_jsonl();
  return run;
}

/// One grid point's candidate from its steady-state `eval` and the run it
/// shares: meets_slo, the sink blocks under the point's label, the finished
/// model's own results and, with the report armed, its request-sim and
/// timeline cells.
CapacityCandidate publish_point(ServingEval eval, const CapacityQuery& q,
                                const PointRun& run) {
  CapacityCandidate c;
  c.eval = std::move(eval);
  c.stats = run.stats;
  c.meets_slo =
      c.stats.slo_attainment >= q.attainment_target &&
      (q.area_budget_mm2 <= 0 || c.eval.area_mm2 <= q.area_budget_mm2);

  const ServingPoint& point = c.eval.point;
  if (run.model != nullptr) run.model->publish(point);
  if (!run.reqtrace_block.empty() || run.timeline != nullptr) {
    // The same grid-point label keys both sinks, so the two JSONL files
    // cross-reference by label.
    char label[160];
    std::snprintf(label, sizeof label, "cores%d/vlen%u/l2:%llu/inst%d/%s/%s",
                  point.cores, point.vlen_bits,
                  static_cast<unsigned long long>(point.l2_total_bytes),
                  point.instances, run.policy.c_str(), run.arrivals.c_str());
    if (!run.reqtrace_block.empty()) {
      obs::ReqTraceSink::global().record(label, run.reqtrace_block);
    }
    if (run.timeline != nullptr) {
      obs::TimelineSink::global().record(label, run.timeline_block);
    }
  }

  if (report::enabled()) {
    // The grid point and labels lead both cells: they are the collector key.
    report::Json cell;
    cell.add("cores", point.cores)
        .add("vlen_bits", point.vlen_bits)
        .add("l2_total_bytes", point.l2_total_bytes)
        .add("instances", point.instances)
        .add("policy", run.policy)
        .add("arrivals", run.arrivals);
    if (run.timeline != nullptr) {
      const obs::TimelineRecorder& rec = *run.timeline;
      const obs::TimelineAnalysis ta =
          obs::analyze_timeline(rec.snapshots(), rec.alerts());
      report::Json tc = cell;
      tc.add("snapshots", rec.snapshots().size())
          .add("interval_cycles", rec.config().interval_cycles)
          .add("alerts", ta.alert_count)
          .add("warmup_cycles", ta.warmup_end_cycles)
          .add("steady_p99", ta.final_rolling_p99)
          .add("max_burn_rate", ta.max_burn_rate)
          .add("time_in_alert_cycles", ta.time_in_alert_cycles);
      report::Collector::global().record(report::Section::kTimeline,
                                         {std::move(tc)});
    }
    cell.add("load_rps", q.load_rps)
        .add("slo_cycles", slo_cycles(q))
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

/// The model `factory` builds for `point`'s (vlen, L2 slice).
std::unique_ptr<ServiceModel> make_model(const ServiceModelFactory& factory,
                                         const ServingPoint& point) {
  if (!factory) {
    throw std::invalid_argument("CapacityPlanner: empty service factory");
  }
  std::unique_ptr<ServiceModel> model =
      factory(point.vlen_bits, point.l2_slice_bytes());
  if (model == nullptr) {
    throw std::invalid_argument("CapacityPlanner: factory returned null");
  }
  return model;
}

/// The grid body both evaluate_grid overloads share. A run depends only on
/// (vlen, L2 slice, instances, query), so `run(i)` is called once per
/// distinct triple, i being its first point, one pool task each into a
/// pre-sized slot; the runs, and the candidates published from them in grid
/// order on the calling thread, are byte-identical whether the pool has 1
/// worker or 64 (§7's guarantee, extended to request-level stats).
std::vector<CapacityCandidate> publish_grid(
    const ServingSimulator& sim, const std::vector<ServingPoint>& points,
    const std::vector<double>& cycles, const CapacityQuery& q,
    ThreadPool* pool, const std::function<PointRun(std::size_t)>& run) {
  const PointGroups sims = group_points(points, true);
  std::vector<PointRun> runs(sims.first.size());
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(runs.size(),
                 [&](std::size_t r) { runs[r] = run(sims.first[r]); });
  std::vector<CapacityCandidate> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.push_back(publish_point(sim.evaluate(points[i], cycles[i]), q,
                                runs[sims.group[i]]));
  }
  return out;
}

}  // namespace

BatchCostModel batch_cost_model(const Network& net, double per_image_cycles) {
  return BatchCostModel::amortizing(
      per_image_cycles, conv_weight_bytes(net) / MemConfig{}.mem_bytes_per_cycle);
}

BatchCostModel batch_cost_model(SweepDriver& driver, const Network& net,
                                std::uint32_t vlen_bits,
                                std::uint64_t l2_slice_bytes,
                                std::optional<Algo> fixed) {
  return batch_cost_model(
      net, instance_cycles(driver, net, vlen_bits, l2_slice_bytes, fixed));
}

void ServiceModel::trace_annotations(std::vector<obs::TraceNote>&) {}

void ServiceModel::publish(const ServingPoint&) const {}

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

CapacityCandidate CapacityPlanner::evaluate(const Network& net,
                                            const ServingPoint& point,
                                            const CapacityQuery& q,
                                            std::optional<Algo> fixed) const {
  require_valid(q);
  ServingEval eval = sim_.evaluate(net, point, fixed);
  RequestSimConfig rc;
  rc.cost = batch_cost_model(net, eval.cycles_per_image);
  const PointRun run = run_point(*driver_, net, point, q, fixed, rc);
  return publish_point(std::move(eval), q, run);
}

CapacityCandidate CapacityPlanner::evaluate(
    const Network& net, const ServingPoint& point, const CapacityQuery& q,
    const ServiceModelFactory& factory) const {
  require_valid(q);
  // The steady-state side reports the oracle per-image cycles, the natural
  // baseline to read a learned candidate's stats against.
  ServingEval eval = sim_.evaluate(net, point, std::nullopt);
  const PointRun run = run_point(*driver_, net, point, q, std::nullopt, {},
                                 make_model(factory, point));
  return publish_point(std::move(eval), q, run);
}

std::vector<CapacityCandidate> CapacityPlanner::evaluate_grid(
    const Network& net, const CapacityQuery& q, std::optional<Algo> fixed,
    ThreadPool* pool) const {
  require_valid(q);
  const std::vector<ServingPoint> points = ServingSimulator::grid_points();
  obs::Span span("serving.capacity_grid");
  announce_grid(span, net, q, points.size(),
                fixed ? to_string(*fixed) : "oracle");
  const std::vector<double> cycles =
      instance_cycles(*driver_, net, points, fixed);
  return publish_grid(sim_, points, cycles, q, pool, [&](std::size_t i) {
    RequestSimConfig rc;
    rc.cost = batch_cost_model(net, cycles[i]);
    return run_point(*driver_, net, points[i], q, fixed, rc);
  });
}

std::vector<CapacityCandidate> CapacityPlanner::evaluate_grid(
    const Network& net, const CapacityQuery& q,
    const ServiceModelFactory& factory, ThreadPool* pool) const {
  require_valid(q);
  const std::vector<ServingPoint> points = ServingSimulator::grid_points();
  obs::Span span("serving.capacity_grid");
  announce_grid(span, net, q, points.size(), "factory");
  const std::vector<double> cycles =
      instance_cycles(*driver_, net, points, std::nullopt);
  // A model reads only (vlen, L2 slice): build one per distinct pair, and
  // run every simulation of that pair on a fresh clone of it.
  const PointGroups costs = group_points(points, false);
  std::vector<std::unique_ptr<ServiceModel>> models;
  models.reserve(costs.first.size());
  for (std::size_t i : costs.first) {
    models.push_back(make_model(factory, points[i]));
  }
  return publish_grid(sim_, points, cycles, q, pool, [&](std::size_t i) {
    return run_point(*driver_, net, points[i], q, std::nullopt, {},
                     models[costs.group[i]]->clone());
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
