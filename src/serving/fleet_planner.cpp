#include "serving/fleet_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "area/pareto.h"
#include "common/thread_pool.h"
#include "obs/log.h"
#include "report/collector.h"

namespace vlacnn::serving {

namespace {

const char* router_kind_name(RouterSpec::Kind k) {
  switch (k) {
    case RouterSpec::Kind::kRoundRobin:
      return "rr";
    case RouterSpec::Kind::kJoinShortestQueue:
      return "jsq";
    case RouterSpec::Kind::kPowerOfTwo:
      return "p2c";
  }
  return "?";
}

/// Normalized mix fractions (shares validated positive by the mix itself).
std::vector<double> mix_fractions(const FleetTrafficMix& mix) {
  double total = 0;
  for (double s : mix.shares) total += s;
  std::vector<double> frac;
  frac.reserve(mix.shares.size());
  for (double s : mix.shares) frac.push_back(s / total);
  return frac;
}

void validate_inputs(const std::vector<Network>& nets,
                     const FleetTrafficMix& mix, const FleetQuery& q) {
  if (mix.names.empty() || mix.names.size() != mix.shares.size()) {
    throw std::invalid_argument("FleetPlanner: inconsistent traffic mix");
  }
  if (nets.size() != mix.names.size()) {
    throw std::invalid_argument(
        "FleetPlanner: need one Network per mix model, in mix order");
  }
  if (!(q.load_rps > 0) || !(q.slo_ms > 0) || !(q.clock_hz > 0)) {
    throw std::invalid_argument(
        "FleetPlanner: load, SLO, and clock must be positive");
  }
  if (q.max_chips < 1 || q.max_chip_types < 1) {
    throw std::invalid_argument(
        "FleetPlanner: max_chips and max_chip_types must be >= 1");
  }
  mix.pick(1);  // validates shares (positive, finite)
}

/// All count vectors over `types` with sum in [1, max_chips], lexicographic
/// by (counts[0], counts[1], ...) — the deterministic enumeration order every
/// plan consumer shares.
std::vector<std::vector<int>> enumerate_compositions(std::size_t types,
                                                     int max_chips) {
  std::vector<std::vector<int>> out;
  std::vector<int> counts(types, 0);
  const auto recurse = [&](auto&& self, std::size_t t, int used) -> void {
    if (t == types) {
      if (used >= 1) out.push_back(counts);
      return;
    }
    for (int n = 0; used + n <= max_chips; ++n) {
      counts[t] = n;
      self(self, t + 1, used + n);
    }
    counts[t] = 0;
  };
  recurse(recurse, 0, 0);
  return out;
}

/// Simulate counts[t] copies of each chip type `chips[t]` (its per-model
/// costs resolved once per plan) under the query's mixed load, with full
/// replication. Records a report fleet cell when collection is armed.
FleetCandidate simulate_composition(const FleetTrafficMix& mix,
                                    const FleetQuery& q,
                                    const std::vector<ServingPoint>& types,
                                    const std::vector<FleetChip>& chips,
                                    const std::vector<int>& counts) {
  FleetCandidate cand;
  cand.counts = counts;
  cand.label = composition_label(types, counts);

  FleetConfig fc;
  fc.mix = mix;
  fc.router = q.router;
  fc.policy = q.policy;
  fc.queue_capacity = q.queue_capacity;
  fc.slo_cycles = q.slo_ms * 1e-3 * q.clock_hz;
  fc.router_hop_cycles = q.router_hop_cycles;
  fc.attainment_target = q.attainment_target;
  fc.expected_horizon_cycles =
      static_cast<double>(q.requests) * (q.clock_hz / q.load_rps);
  for (std::size_t t = 0; t < chips.size(); ++t) {
    for (int n = 0; n < counts[t]; ++n) fc.chips.push_back(chips[t]);
  }
  char label[256];
  std::snprintf(label, sizeof label, "fleet/%s/%s/poisson",
                cand.label.c_str(), router_kind_name(q.router.kind));
  fc.label = label;

  PoissonArrivals arrivals(q.clock_hz / q.load_rps, q.requests, q.seed);
  cand.stats = simulate_fleet(fc, arrivals);
  cand.total_area_mm2 = cand.stats.total_area_mm2;
  cand.simulated = true;
  cand.meets_slo =
      cand.stats.fleet.slo_attainment >= q.attainment_target &&
      (q.area_budget_mm2 <= 0 || cand.total_area_mm2 <= q.area_budget_mm2);

  if (report::enabled()) {
    const ServingStats& s = cand.stats.fleet;
    report::Collector::global().record(
        report::Section::kFleet,
        {report::Json()
             .add("label", cand.label)
             .add("router", router_kind_name(q.router.kind))
             .add("mix", mix.to_string())
             .add("chips", fc.chips.size())
             .add("total_area_mm2", cand.total_area_mm2)
             .add("load_rps", q.load_rps)
             .add("slo_cycles", fc.slo_cycles)
             .add("offered", s.offered)
             .add("completed", s.completed)
             .add("dropped", s.dropped)
             .add("p50", s.p50)
             .add("p99", s.p99)
             .add("p999", s.p999)
             .add("mean_latency", s.mean_latency)
             .add("utilization", s.utilization)
             .add("slo_attainment", s.slo_attainment)
             .add("mean_router_hop", cand.stats.mean_router_hop)
             .add("meets_slo", cand.meets_slo)});
  }
  return cand;
}

}  // namespace

std::string composition_label(const std::vector<ServingPoint>& types,
                              const std::vector<int>& counts) {
  std::string out;
  for (std::size_t t = 0; t < types.size() && t < counts.size(); ++t) {
    if (counts[t] <= 0) continue;
    if (!out.empty()) out += '+';
    ChipSpec spec;
    spec.point = types[t];
    out += std::to_string(counts[t]) + "x" + spec.short_label();
  }
  return out;
}

std::vector<ServingPoint> FleetPlanner::chip_type_menu(
    const std::vector<Network>& nets, const FleetTrafficMix& mix,
    const FleetQuery& q) const {
  validate_inputs(nets, mix, q);
  const std::vector<double> frac = mix_fractions(mix);
  const std::vector<ServingPoint> points = ServingSimulator::grid_points();

  // Two objectives to minimise per grid point: chip area, and the
  // mix-weighted per-image service time the whole chip delivers
  // (weighted per-instance cycles / instances).
  std::vector<std::vector<double>> cycles;  // [net][point]
  for (const Network& net : nets) {
    cycles.push_back(instance_cycles(*driver_, net, points, std::nullopt));
  }
  std::vector<ParetoPoint> objs;
  objs.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ServingPoint& p = points[i];
    double weighted = 0;
    for (std::size_t m = 0; m < nets.size(); ++m) {
      weighted += frac[m] * cycles[m][i];
    }
    objs.push_back(
        {area_.chip_mm2(p.vlen_bits, p.l2_total_bytes, p.cores),
         weighted / static_cast<double>(p.instances), i});
  }
  const std::vector<std::size_t> frontier = pareto_frontier(objs);

  // Thin the frontier (area-ascending) to the menu size, always keeping both
  // endpoints — the cheapest chip and the fastest one — with the rest spread
  // evenly. Pure index arithmetic, so the menu is deterministic.
  std::vector<ServingPoint> menu;
  const std::size_t want =
      std::min<std::size_t>(frontier.size(),
                            static_cast<std::size_t>(q.max_chip_types));
  if (want == 0) return menu;
  for (std::size_t j = 0; j < want; ++j) {
    const std::size_t fi =
        want == 1 ? 0 : j * (frontier.size() - 1) / (want - 1);
    const ServingPoint& p = points[objs[frontier[fi]].tag];
    if (menu.empty() || menu.back().cores != p.cores ||
        menu.back().vlen_bits != p.vlen_bits ||
        menu.back().l2_total_bytes != p.l2_total_bytes ||
        menu.back().instances != p.instances) {
      menu.push_back(p);
    }
  }
  return menu;
}

FleetPlan FleetPlanner::plan(const std::vector<Network>& nets,
                             const FleetTrafficMix& mix, const FleetQuery& q,
                             ThreadPool* pool) const {
  validate_inputs(nets, mix, q);
  FleetPlan plan;
  plan.chip_types = chip_type_menu(nets, mix, q);
  const std::vector<double> frac = mix_fractions(mix);

  // Each chip type with its per-model cost models, resolved once for every
  // composition, and its optimistic capacity (requests per cycle, perfect
  // batching): every image costs only the mix-weighted *marginal* cycles. No
  // simulated fleet can beat it, so compositions under the load are pruned
  // unsimulated.
  std::vector<FleetChip> chips(plan.chip_types.size());
  std::vector<double> type_cap(plan.chip_types.size(), 0);
  for (std::size_t t = 0; t < plan.chip_types.size(); ++t) {
    const ServingPoint& p = plan.chip_types[t];
    FleetChip& chip = chips[t];
    chip.spec.point = p;  // hosted_models empty = full replication
    double marginal = 0;
    for (std::size_t m = 0; m < nets.size(); ++m) {
      chip.costs.push_back(batch_cost_model(*driver_, nets[m], p.vlen_bits,
                                            p.l2_slice_bytes(), std::nullopt));
      marginal += frac[m] * chip.costs.back().marginal_image_cycles;
    }
    chip.area_mm2 = area_.chip_mm2(p.vlen_bits, p.l2_total_bytes, p.cores);
    type_cap[t] = static_cast<double>(p.instances) / marginal;
  }

  const std::vector<std::vector<int>> compositions =
      enumerate_compositions(plan.chip_types.size(), q.max_chips);
  obs::log(obs::LogLevel::kInfo, "serving", "fleet_plan",
           {{"types", std::to_string(plan.chip_types.size())},
            {"compositions", std::to_string(compositions.size())},
            {"load_rps", std::to_string(q.load_rps)}});

  // One task per composition into its pre-sized slot: each simulation depends
  // only on (nets, mix, query, composition), so the candidate list is
  // byte-identical whether the pool has 1 worker or 64.
  plan.candidates.resize(compositions.size());
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(compositions.size(), [&](std::size_t i) {
    const std::vector<int>& counts = compositions[i];
    double cap = 0, area = 0;
    for (std::size_t t = 0; t < counts.size(); ++t) {
      cap += counts[t] * type_cap[t];
      area += counts[t] * chips[t].area_mm2;
    }
    const double need = q.load_rps / q.clock_hz;  // requests per cycle
    const bool over_budget =
        q.area_budget_mm2 > 0 && area > q.area_budget_mm2;
    if (cap < need || over_budget) {
      FleetCandidate& cand = plan.candidates[i];
      cand.counts = counts;
      cand.label = composition_label(plan.chip_types, counts);
      cand.total_area_mm2 = area;
      cand.simulated = false;
      cand.meets_slo = false;
      return;
    }
    plan.candidates[i] =
        simulate_composition(mix, q, plan.chip_types, chips, counts);
  });

  for (const FleetCandidate& cand : plan.candidates) {
    if (!cand.simulated || !cand.meets_slo) continue;
    if (!plan.best.has_value() ||
        cand.total_area_mm2 < plan.best->total_area_mm2) {
      plan.best = cand;
    }
    int nonzero_types = 0;
    for (int n : cand.counts) nonzero_types += n > 0 ? 1 : 0;
    if (nonzero_types == 1 &&
        (!plan.best_homogeneous.has_value() ||
         cand.total_area_mm2 < plan.best_homogeneous->total_area_mm2)) {
      plan.best_homogeneous = cand;
    }
  }
  return plan;
}

}  // namespace vlacnn::serving
