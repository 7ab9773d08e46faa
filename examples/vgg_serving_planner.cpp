// Model-serving capacity planner: given a VGG-16 classification service, an
// offered load, and a latency SLO, find the cheapest multicore RVV chip
// (7 nm area) on the paper's Fig-12 co-location grid that meets the SLO —
// using the request-level discrete-event simulator (queueing, batching, tail
// latency) rather than steady-state throughput alone. See DESIGN.md §10.
//
//   ./examples/vgg_serving_planner [load_rps] [slo_ms] [area_budget_mm2]
//   defaults: 2000 req/s, 50 ms, unbounded area
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "common/env.h"
#include "net/models.h"
#include "report/collector.h"
#include "serving/request_sim.h"

using namespace vlacnn;
using namespace vlacnn::serving;

namespace {

int run(int argc, char** argv) {
  CapacityQuery q;
  q.load_rps = 2000.0;
  try {
    if (argc > 1) q.load_rps = parse_real("load_rps", argv[1], kPositive);
    if (argc > 2) q.slo_ms = parse_real("slo_ms", argv[2], kPositive);
    if (argc > 3) {
      q.area_budget_mm2 = parse_real("area_budget_mm2", argv[3], kNonNegative);
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr,
                 "%s\nusage: %s [load_rps] [slo_ms] [area_budget_mm2]\n",
                 e.what(), argv[0]);
    return 2;
  }
  q.policy = {BatchPolicySpec::Kind::kAdaptive, 8, 2e6};  // 1 ms flush

  std::printf("planning VGG-16 serving: %.0f req/s Poisson, %.0f ms SLO at "
              "p%.0f%s\n",
              q.load_rps, q.slo_ms, q.attainment_target * 100.0,
              q.area_budget_mm2 > 0 ? " (area-bounded)" : "");

  ResultsDb db(default_results_path());
  SweepDriver driver(&db);
  CapacityPlanner planner(&driver);
  const Network vgg = make_vgg16(224);

  const auto report = [&](const char* label, const CapacityCandidate& c) {
    const ServingEval& e = c.eval;
    std::printf("\n%s\n", label);
    std::printf("  chip: %d cores x %u-bit vectors, %lluMB shared L2 "
                "(%.2f mm2)\n",
                e.point.cores, e.point.vlen_bits,
                static_cast<unsigned long long>(e.point.l2_total_bytes >> 20),
                e.area_mm2);
    std::printf("  %d co-located instances, %lluMB L2 slice each\n",
                e.point.instances,
                static_cast<unsigned long long>(e.point.l2_slice_bytes() >>
                                                20));
    std::printf("  p50 %.2f / p99 %.2f / p99.9 %.2f ms, attainment %.2f%%, "
                "utilization %.1f%%\n",
                ServingStats::ms(c.stats.p50, q.clock_hz),
                ServingStats::ms(c.stats.p99, q.clock_hz),
                ServingStats::ms(c.stats.p999, q.clock_hz),
                c.stats.slo_attainment * 100.0, c.stats.utilization * 100.0);
  };

  // Per-layer algorithm selection (the co-design result) vs the best
  // fixed-algorithm plan, both searched over the full grid.
  const auto opt = planner.evaluate_grid(vgg, q, std::nullopt);
  const auto best_opt = CapacityPlanner::cheapest(opt);
  if (!best_opt.has_value()) {
    std::printf("no grid configuration meets the SLO at this load\n");
    return 1;
  }
  report("cheapest design, per-layer algorithm selection:", *best_opt);

  std::optional<CapacityCandidate> best_fixed;
  Algo best_algo = Algo::kGemm6;
  for (Algo a : kAllAlgos) {
    const auto cand = CapacityPlanner::cheapest(planner.evaluate_grid(vgg, q, a));
    if (cand.has_value() &&
        (!best_fixed.has_value() ||
         cand->eval.area_mm2 < best_fixed->eval.area_mm2)) {
      best_fixed = cand;
      best_algo = a;
    }
  }
  if (best_fixed.has_value()) {
    char label[96];
    std::snprintf(label, sizeof(label),
                  "cheapest design, single algorithm (%s everywhere):",
                  to_string(best_algo));
    report(label, *best_fixed);
    std::printf("\nselection advantage: %.2f mm2 vs %.2f mm2 for the same "
                "load and SLO (%.1f%% cheaper silicon)\n",
                best_opt->eval.area_mm2, best_fixed->eval.area_mm2,
                (1.0 - best_opt->eval.area_mm2 / best_fixed->eval.area_mm2) *
                    100.0);
  } else {
    std::printf("\nno single-algorithm plan meets the SLO at any grid point "
                "(selection is the difference between feasible and not)\n");
  }
  return 0;
}

}  // namespace

// run_tool writes the VLACNN_* artifacts the run armed (DESIGN.md §8).
int main(int argc, char** argv) {
  return report::run_tool("vgg_serving_planner",
                          [&] { return run(argc, argv); });
}
