// vlacnn-capacity: SLO capacity planner over the Fig-12 co-location grid.
//
//   vlacnn-capacity --net vgg16 --load 2000rps --slo 50ms
//
// Simulates every feasible (cores x vlen x shared-L2 x instances)
// configuration under seeded Poisson traffic with the request-level
// discrete-event simulator (DESIGN.md §10) and reports the cheapest chip
// (7 nm area) that meets the latency SLO at the offered load.
//
// Flags:
//   --net vgg16|yolo20        network (default vgg16)
//   --load N[rps]             offered Poisson load, requests/s (default 1000)
//   --slo N[ms]               latency deadline, milliseconds (default 50)
//   --attainment F            required fraction inside the SLO (default 0.99)
//   --requests N              simulated requests per grid point (default 2000)
//   --seed N                  arrival-process seed (default 42)
//   --policy nobatch|maxbatch|adaptive   batching policy (default adaptive)
//   --max-batch N             policy batch bound (default 8)
//   --flush-ms F              adaptive flush timeout, ms (default 1)
//   --queue N                 queue bound, 0 = unbounded (default 0)
//   --area-budget F           max chip area mm2, 0 = unbounded (default 0)
//   --dispatch MODE           per-layer algorithm selection: oracle (default,
//                             per-layer-optimal sweep rows), learned (train
//                             the paper's random forest on this net and run
//                             it in the request loop with its inference cost
//                             charged), or fixed:<algo> (one algorithm
//                             everywhere, gemm6 fallback)
//   --dispatch-cycles N       learned mode: selector cycles charged per image
//                             per layer (default from bench_dispatch_overhead
//                             calibration; env override VLACNN_DISPATCH_CYCLES)
//   --json FILE               also write the full candidate list as JSON;
//                             byte-stable across runs and VLACNN_THREADS
//   --timeline FILE           record a per-grid-point serving timeline to
//                             FILE as JSONL (same as VLACNN_TIMELINE=FILE;
//                             cadence via VLACNN_TIMELINE_INTERVAL). Inspect
//                             with `vlacnn-report timeline FILE`. Byte-stable
//                             across runs and VLACNN_THREADS.
//   --reqtrace FILE           record per-request traces (tail-sampled; see
//                             VLACNN_REQTRACE_TOPK / VLACNN_REQTRACE_HEAD)
//                             per grid point to FILE as JSONL (same as
//                             VLACNN_REQTRACE=FILE). Inspect with
//                             `vlacnn-report requests FILE`. Byte-stable
//                             across runs and VLACNN_THREADS.
//
// Fleet mode (DESIGN.md §15):
//
//   vlacnn-capacity fleet --mix vgg16=0.7,yolo20=0.3 --load 3000 --slo 60ms
//
// Searches multi-chip fleet compositions (chip types drawn from the
// area/throughput Pareto frontier, up to --max-chips chips) for the cheapest
// total silicon that carries the mixed Poisson load inside the SLO, routed by
// a pluggable front-end policy. Fleet-only flags:
//   --mix NAME=W[,NAME=W...]  traffic mix over vgg16/yolo20 with positive
//                             weights (default vgg16=0.7,yolo20=0.3)
//   --router rr|jsq|p2c       routing policy (default jsq)
//   --fleet-seed N            router seed (default VLACNN_FLEET_SEED, else 1)
//   --hop N                   constant front-end hop, cycles (default 0)
//   --max-chips N             largest fleet size searched (default 4)
//   --chip-types N            Pareto menu size (default 5)
// Shared flags (--load/--slo/--attainment/--requests/--seed/--policy/
// --max-batch/--flush-ms/--queue/--area-budget/--json/--timeline/--reqtrace)
// keep their single-chip meaning; --json emits a vlacnn.fleet.v1 document,
// byte-identical across runs and VLACNN_THREADS.
//
// Exit codes: 0 = a configuration meets the SLO, 1 = infeasible (or another
// runtime failure, a failed artifact write included), 2 = usage error (bad
// flag/value; usage goes to stderr).
//
// The sweep cache (results/sweep_cache.csv, override REPRO_RESULTS_DIR) makes
// warm runs fast; a cold run simulates the grid points it needs first.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "dispatch/learned_dispatcher.h"
#include "ml/dataset.h"
#include "obs/json_util.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "ml/random_forest.h"
#include "net/models.h"
#include "report/collector.h"
#include "report/json.h"
#include "serving/fleet_planner.h"
#include "serving/request_sim.h"
#include "sweep/results_db.h"
#include "sweep/sweep.h"

using namespace vlacnn;
using namespace vlacnn::serving;
using report::json_number;
using report::json_quote;

namespace {

int usage(const char* argv0, bool fleet) {
  if (fleet) {
    std::fprintf(
        stderr,
        "usage: %s fleet [--mix NAME=W[,NAME=W...]] [--load N[rps]]\n"
        "          [--slo N[ms]] [--attainment F] [--requests N]\n"
        "          [--seed N] [--router rr|jsq|p2c] [--fleet-seed N]\n"
        "          [--hop N] [--max-chips N] [--chip-types N]\n"
        "          [--policy nobatch|maxbatch|adaptive] [--max-batch N]\n"
        "          [--flush-ms F] [--queue N] [--area-budget F]\n"
        "          [--json FILE] [--timeline FILE] [--reqtrace FILE]\n",
        argv0);
  } else {
    std::fprintf(
        stderr,
        "usage: %s [--net vgg16|yolo20] [--load N[rps]] [--slo N[ms]]\n"
        "          [--attainment F] [--requests N] [--seed N]\n"
        "          [--policy nobatch|maxbatch|adaptive] [--max-batch N]\n"
        "          [--flush-ms F] [--queue N] [--area-budget F]\n"
        "          [--dispatch oracle|learned|fixed:<algo>]\n"
        "          [--dispatch-cycles N] [--json FILE] [--timeline FILE]\n"
        "          [--reqtrace FILE]\n",
        argv0);
  }
  return 2;
}

/// "2000rps" / "2000" / "50ms" / "50": a positive real with an optional unit
/// suffix.
double suffixed(const std::string& flag, std::string_view value,
                std::string_view unit) {
  if (value.size() > unit.size() && value.ends_with(unit)) {
    value.remove_suffix(unit.size());
  }
  return parse_real(flag, value, kPositive);
}

/// A --net or --mix model name.
const char* model_name(std::string_view source, std::string_view text) {
  return parse_word(source, text, {{"vgg16", 0}, {"yolo20", 1}}).word;
}

Network make_net(const std::string& name) {
  return name == "vgg16" ? make_vgg16(224) : make_yolov3(20, 608);
}

/// Parse "vgg16=0.7,yolo20=0.3" into a FleetTrafficMix (names + weights;
/// normalization happens in the mix itself). Throws on anything malformed.
FleetTrafficMix parse_mix(const std::string& text) {
  FleetTrafficMix mix;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string term = text.substr(pos, comma - pos);
    const std::size_t eq = term.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("--mix: expected NAME=WEIGHT terms, got '" +
                               term + "'");
    }
    mix.names.push_back(model_name("--mix", term.substr(0, eq)));
    mix.shares.push_back(parse_real("--mix " + mix.names.back(),
                                    term.substr(eq + 1), kPositive));
    pos = comma + 1;
  }
  if (mix.names.empty()) {
    throw std::runtime_error("--mix: expected NAME=WEIGHT terms, got ''");
  }
  return mix;
}

/// Everything the command line sets, for either subcommand.
struct Options {
  bool fleet = false;
  FleetQuery q;  ///< the single-chip plan reads its CapacityQuery part
  std::string policy = "adaptive";
  double flush_ms = 1.0;
  std::string json_path;
  // Single-chip only.
  std::string net = "vgg16";
  std::string dispatch = "oracle";
  std::optional<Algo> fixed;   ///< set by --dispatch fixed:<algo>
  double dispatch_cycles = 0;  ///< 0 = default_dispatch_cycles()
  // Fleet only.
  FleetTrafficMix mix;
  std::string router = "jsq";
  bool fleet_seed_set = false;
};

/// The one flag loop of both subcommands. Throws on any malformed value.
Options parse_options(int argc, char** argv, bool fleet) {
  Options o;
  o.fleet = fleet;
  FleetQuery& q = o.q;
  std::string mix = "vgg16=0.7,yolo20=0.3";
  for (int i = fleet ? 2 : 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error(flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--load") {
      q.load_rps = suffixed(flag, value(), "rps");
    } else if (flag == "--slo") {
      q.slo_ms = suffixed(flag, value(), "ms");
    } else if (flag == "--attainment") {
      q.attainment_target = parse_real(flag, value(), {0, 1, true});
    } else if (flag == "--requests") {
      q.requests = parse_uint<std::uint64_t>(flag, value(), 1);
    } else if (flag == "--seed") {
      q.seed = parse_uint<std::uint64_t>(flag, value());
    } else if (flag == "--policy") {
      using Kind = BatchPolicySpec::Kind;
      const EnvWord w = parse_word(flag, value(),
                                   {{"nobatch", int(Kind::kNoBatch)},
                                    {"maxbatch", int(Kind::kMaxBatch)},
                                    {"adaptive", int(Kind::kAdaptive)}});
      o.policy = w.word;
      q.policy.kind = static_cast<Kind>(w.value);
    } else if (flag == "--max-batch") {
      q.policy.max_batch = parse_uint<int>(flag, value(), 1);
    } else if (flag == "--flush-ms") {
      o.flush_ms = suffixed(flag, value(), "ms");
    } else if (flag == "--queue") {
      q.queue_capacity = parse_uint<std::size_t>(flag, value());
    } else if (flag == "--area-budget") {
      q.area_budget_mm2 = parse_real(flag, value(), kNonNegative);
    } else if (flag == "--json") {
      o.json_path = value();
    } else if (flag == "--timeline") {
      obs::set_timeline_path(value());
    } else if (flag == "--reqtrace") {
      obs::set_reqtrace_path(value());
    } else if (!fleet && flag == "--net") {
      o.net = model_name(flag, value());
    } else if (!fleet && flag == "--dispatch") {
      o.dispatch = value();
    } else if (!fleet && flag == "--dispatch-cycles") {
      o.dispatch_cycles = parse_real(flag, value(), kPositive);
    } else if (fleet && flag == "--mix") {
      mix = value();
    } else if (fleet && flag == "--router") {
      o.router = value();
    } else if (fleet && flag == "--fleet-seed") {
      q.router.seed = parse_uint<std::uint64_t>(flag, value());
      o.fleet_seed_set = true;
    } else if (fleet && flag == "--hop") {
      q.router_hop_cycles = parse_real(flag, value(), kNonNegative);
    } else if (fleet && flag == "--max-chips") {
      q.max_chips = parse_uint<int>(flag, value(), 1);
    } else if (fleet && flag == "--chip-types") {
      q.max_chip_types = parse_uint<int>(flag, value(), 1);
    } else {
      throw std::runtime_error(std::string("unknown ") +
                               (fleet ? "fleet " : "") + "flag '" + flag +
                               "'");
    }
  }
  q.policy.timeout_cycles = o.flush_ms * 1e-3 * q.clock_hz;
  if (fleet) {
    q.router.kind = router_kind_from_string(o.router);
    o.mix = parse_mix(mix);
    o.mix.seed = q.seed;
  } else if (o.dispatch.rfind("fixed:", 0) == 0) {
    o.fixed = algo_from_string(o.dispatch.substr(6));
  } else if (o.dispatch != "oracle" && o.dispatch != "learned") {
    throw std::runtime_error("unknown --dispatch '" + o.dispatch +
                             "' (oracle, learned, or fixed:<algo>)");
  }
  return o;
}

/// The `query` object of both JSON documents, in each schema's field order:
/// the fleet fields follow `seed`, the dispatch fields close the single-chip
/// one.
std::string query_json(const Options& o, double dispatch_cycles) {
  const FleetQuery& q = o.q;
  std::string out = "{\"load_rps\": " + json_number(q.load_rps);
  out += ", \"slo_ms\": " + json_number(q.slo_ms);
  out += ", \"attainment_target\": " + json_number(q.attainment_target);
  out += ", \"requests\": " + std::to_string(q.requests);
  out += ", \"seed\": " + std::to_string(q.seed);
  if (o.fleet) {
    out += ", \"router\": " + json_quote(o.router);
    out += ", \"fleet_seed\": " + std::to_string(q.router.seed);
    out += ", \"router_hop_cycles\": " + json_number(q.router_hop_cycles);
    out += ", \"max_chips\": " + std::to_string(q.max_chips);
    out += ", \"chip_types\": " + std::to_string(q.max_chip_types);
  }
  out += ", \"policy\": " + json_quote(o.policy);
  out += ", \"max_batch\": " + std::to_string(q.policy.max_batch);
  out += ", \"flush_ms\": " + json_number(o.flush_ms);
  out += ", \"queue_capacity\": " + std::to_string(q.queue_capacity);
  out += ", \"area_budget_mm2\": " + json_number(q.area_budget_mm2);
  if (!o.fleet) {
    out += ", \"dispatch\": " + json_quote(o.dispatch);
    out += ", \"dispatch_cycles_per_layer\": " + json_number(dispatch_cycles);
  }
  return out + "}";
}

/// `items` as JSON array rows, one per line.
template <class T, class ToJson>
void append_rows(std::string& out, const std::vector<T>& items,
                 ToJson to_json) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += "    " + to_json(items[i]);
    if (i + 1 < items.size()) out += ",";
    out += "\n";
  }
}

std::string point_json(const ServingPoint& p) {
  std::string out = "{";
  out += "\"cores\": " + std::to_string(p.cores);
  out += ", \"vlen_bits\": " + std::to_string(p.vlen_bits);
  out += ", \"l2_total_bytes\": " + std::to_string(p.l2_total_bytes);
  out += ", \"instances\": " + std::to_string(p.instances);
  out += "}";
  return out;
}

std::string candidate_json(const CapacityCandidate& c) {
  std::string out = "{";
  out += "\"point\": " + point_json(c.eval.point);
  out += ", \"area_mm2\": " + json_number(c.eval.area_mm2);
  out += ", \"cycles_per_image\": " + json_number(c.eval.cycles_per_image);
  out += ", \"meets_slo\": " + std::string(c.meets_slo ? "true" : "false");
  out += ", \"stats\": " + c.stats.to_json();
  out += "}";
  return out;
}

std::string fleet_candidate_json(const FleetCandidate& c) {
  std::string out = "{";
  out += "\"label\": " + json_quote(c.label);
  out += ", \"counts\": [";
  for (std::size_t i = 0; i < c.counts.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(c.counts[i]);
  }
  out += "]";
  out += ", \"total_area_mm2\": " + json_number(c.total_area_mm2);
  out += ", \"simulated\": " + std::string(c.simulated ? "true" : "false");
  out += ", \"meets_slo\": " + std::string(c.meets_slo ? "true" : "false");
  out += ", \"stats\": ";
  out += c.simulated ? c.stats.to_json() : "null";
  out += "}";
  return out;
}

/// What a plan hands the shared epilogue.
struct Outcome {
  std::size_t candidates = 0;
  bool met = false;  ///< a configuration meets the SLO
  std::string json;  ///< the --json document; empty without --json
};

/// The single-chip plan: the cheapest Fig-12 chip for one net.
Outcome plan_capacity(const Options& o) {
  const CapacityQuery& q = o.q;
  Network net = make_net(o.net);

  // When VLACNN_REPORT is set, the run writes
  // <dir>/capacity_plan_<net>.report.json — with --dispatch learned it
  // carries the per-point dispatch cells (oracle gap, explorations) that
  // vlacnn-report summarize tabulates.
  report::set_report_title("capacity plan " + net.name());

  ResultsDb db(default_results_path());
  SweepDriver driver(&db);
  CapacityPlanner planner(&driver);

  std::printf("capacity plan: %s, %.0f req/s Poisson, %.0f ms SLO at "
              "p%.4g, policy %s, dispatch %s\n",
              net.name().c_str(), q.load_rps, q.slo_ms,
              q.attainment_target * 100.0, o.policy.c_str(),
              o.dispatch.c_str());

  // Resolved (flag, then env knob, then calibrated default) only on the
  // learned path; 0 in the JSON marks the selector as not in the loop.
  double effective_dispatch_cycles = 0;
  const auto candidates = [&] {
    if (o.dispatch != "learned") return planner.evaluate_grid(net, q, o.fixed);
    dispatch::DispatchConfig dc;
    dc.dispatch_cycles_per_layer = o.dispatch_cycles > 0
                                       ? o.dispatch_cycles
                                       : dispatch::default_dispatch_cycles();
    effective_dispatch_cycles = dc.dispatch_cycles_per_layer;
    // Train the paper's selector on this network over the Paper II hardware
    // grid — the same sweep keys the figures use, so a warm cache answers
    // every label without new simulation.
    const Dataset ds = build_selection_dataset(driver, {&net}, paper2_vlens(),
                                               paper2_l2_sizes());
    std::vector<std::size_t> all(ds.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    RandomForest forest;
    forest.fit(ds, all, ForestParams{});
    auto flat = std::make_shared<const dispatch::FlatForest>(forest,
                                                             ds.num_classes());
    std::printf("learned dispatch: %zu-sample forest compiled to %zu "
                "nodes, %.4g cycles/layer selector charge\n",
                ds.size(), flat->node_count(), dc.dispatch_cycles_per_layer);
    return planner.evaluate_grid(
        net, q, dispatch::learned_service_factory(flat, &driver, net, dc));
  }();
  std::size_t feasible = 0;
  for (const auto& c : candidates) feasible += c.meets_slo ? 1 : 0;
  std::printf("%zu/%zu grid configurations meet the SLO%s\n", feasible,
              candidates.size(),
              q.area_budget_mm2 > 0 ? " inside the area budget" : "");

  const auto best = CapacityPlanner::cheapest(candidates);
  if (best.has_value()) {
    const ServingEval& e = best->eval;
    const ServingStats& s = best->stats;
    std::printf("cheapest: %d cores x %u-bit vectors, %lluMB shared L2, "
                "%d instances = %.2f mm2 (7nm)\n",
                e.point.cores, e.point.vlen_bits,
                static_cast<unsigned long long>(e.point.l2_total_bytes >> 20),
                e.point.instances, e.area_mm2);
    std::printf("  p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, p99.9 %.2f ms "
                "@ 2GHz\n",
                ServingStats::ms(s.p50, q.clock_hz),
                ServingStats::ms(s.p95, q.clock_hz),
                ServingStats::ms(s.p99, q.clock_hz),
                ServingStats::ms(s.p999, q.clock_hz));
    std::printf("  attainment %.2f%%, utilization %.1f%%, mean batch "
                "%.2f, mean queue %.2f\n",
                s.slo_attainment * 100.0, s.utilization * 100.0, s.mean_batch,
                s.mean_queue);
    std::printf("  latency split: queue-wait %.2f ms + formation-wait "
                "%.2f ms + service %.2f ms\n",
                ServingStats::ms(s.mean_queue_wait, q.clock_hz),
                ServingStats::ms(s.mean_formation_wait, q.clock_hz),
                ServingStats::ms(s.mean_service, q.clock_hz));
  } else {
    std::printf("no configuration meets the SLO at this load\n");
  }

  Outcome out{candidates.size(), best.has_value(), ""};
  if (!o.json_path.empty()) {
    out.json = "{\n  \"schema\": \"vlacnn.capacity.v1\",\n";
    out.json += "  \"net\": " + json_quote(net.name()) + ",\n";
    out.json += "  \"query\": " + query_json(o, effective_dispatch_cycles);
    out.json += ",\n  \"candidates\": [\n";
    append_rows(out.json, candidates, candidate_json);
    out.json += "  ],\n  \"cheapest\": ";
    out.json += best.has_value() ? candidate_json(*best) : "null";
    out.json += "\n}\n";
  }
  return out;
}

/// The `fleet` subcommand: search fleet compositions for the cheapest total
/// silicon meeting the mixed-traffic SLO.
Outcome plan_fleet(Options o) {
  FleetQuery& q = o.q;
  // An env knob is not part of the command line: a malformed
  // VLACNN_FLEET_SEED is a runtime failure (exit 1), not a usage error.
  if (!o.fleet_seed_set) q.router.seed = default_fleet_seed();
  std::vector<Network> nets;
  for (const std::string& name : o.mix.names) nets.push_back(make_net(name));

  report::set_report_title("fleet plan");

  ResultsDb db(default_results_path());
  SweepDriver driver(&db);
  FleetPlanner planner(&driver);

  std::printf("fleet plan: mix %s, %.0f req/s Poisson, %.0f ms SLO at "
              "p%.4g, router %s (seed %llu), <= %d chips over %d types\n",
              o.mix.to_string().c_str(), q.load_rps, q.slo_ms,
              q.attainment_target * 100.0, o.router.c_str(),
              static_cast<unsigned long long>(q.router.seed), q.max_chips,
              q.max_chip_types);

  const FleetPlan plan = planner.plan(nets, o.mix, q);

  std::size_t simulated = 0, feasible = 0;
  for (const auto& c : plan.candidates) {
    simulated += c.simulated ? 1 : 0;
    feasible += c.meets_slo ? 1 : 0;
  }
  std::printf("%zu compositions enumerated over %zu chip types "
              "(%zu simulated, %zu pruned); %zu meet the SLO%s\n",
              plan.candidates.size(), plan.chip_types.size(), simulated,
              plan.candidates.size() - simulated, feasible,
              q.area_budget_mm2 > 0 ? " inside the area budget" : "");

  auto print_best = [&](const char* tag,
                        const std::optional<FleetCandidate>& b) {
    if (!b.has_value()) {
      std::printf("%s: none meets the SLO at this load\n", tag);
      return;
    }
    const ServingStats& s = b->stats.fleet;
    std::printf("%s: %s = %.2f mm2 (7nm)\n", tag, b->label.c_str(),
                b->total_area_mm2);
    std::printf("  p50 %.2f ms, p99 %.2f ms, p99.9 %.2f ms @ 2GHz, "
                "attainment %.2f%%, utilization %.1f%%, mean hop %.4g cyc\n",
                ServingStats::ms(s.p50, q.clock_hz),
                ServingStats::ms(s.p99, q.clock_hz),
                ServingStats::ms(s.p999, q.clock_hz),
                s.slo_attainment * 100.0, s.utilization * 100.0,
                b->stats.mean_router_hop);
  };
  print_best("cheapest fleet", plan.best);
  print_best("cheapest homogeneous", plan.best_homogeneous);
  if (plan.best.has_value() && plan.best_homogeneous.has_value() &&
      plan.best_homogeneous->total_area_mm2 > plan.best->total_area_mm2) {
    std::printf("heterogeneity saves %.2f mm2 (%.1f%%)\n",
                plan.best_homogeneous->total_area_mm2 -
                    plan.best->total_area_mm2,
                100.0 * (1.0 - plan.best->total_area_mm2 /
                                   plan.best_homogeneous->total_area_mm2));
  }

  Outcome out{plan.candidates.size(), plan.best.has_value(), ""};
  if (!o.json_path.empty()) {
    out.json = "{\n  \"schema\": \"vlacnn.fleet.v1\",\n";
    out.json += "  \"mix\": " + json_quote(o.mix.to_string()) + ",\n";
    out.json += "  \"query\": " + query_json(o, 0);
    out.json += ",\n  \"chip_types\": [\n";
    append_rows(out.json, plan.chip_types, point_json);
    out.json += "  ],\n  \"candidates\": [\n";
    append_rows(out.json, plan.candidates, fleet_candidate_json);
    out.json += "  ],\n  \"best\": ";
    out.json += plan.best.has_value() ? fleet_candidate_json(*plan.best)
                                      : "null";
    out.json += ",\n  \"best_homogeneous\": ";
    out.json += plan.best_homogeneous.has_value()
                    ? fleet_candidate_json(*plan.best_homogeneous)
                    : "null";
    out.json += "\n}\n";
  }
  return out;
}

/// Both subcommands' epilogue: the --json file, where the sinks write, and
/// the exit code.
int finish(const Options& o, const Outcome& out) {
  if (!o.json_path.empty()) {
    obs::write_text_file(o.json_path, out.json, "--json");
    std::printf("wrote %s (%zu candidates)\n", o.json_path.c_str(),
                out.candidates);
  }
  if (obs::timeline_enabled()) {
    std::printf("timeline: %zu run blocks -> %s\n",
                obs::TimelineSink::global().block_count(),
                obs::timeline_path().c_str());
  }
  if (obs::reqtrace_enabled()) {
    std::printf("reqtrace: %zu run blocks -> %s\n",
                obs::ReqTraceSink::global().block_count(),
                obs::reqtrace_path().c_str());
  }
  return out.met ? 0 : 1;
}

int run(int argc, char** argv) {
  const bool fleet = argc > 1 && std::strcmp(argv[1], "fleet") == 0;
  // Parse phase: any failure here is a usage error — message plus usage to
  // stderr, exit 2. A runtime failure below (sweep/simulation/IO) throws to
  // run_tool, which exits 1, as "no feasible configuration" does (the
  // contract scripts/test_cli_exit_codes.sh asserts).
  Options o;
  try {
    o = parse_options(argc, argv, fleet);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vlacnn-capacity: %s\n", e.what());
    return usage(argv[0], fleet);
  }
  return finish(o, fleet ? plan_fleet(o) : plan_capacity(o));
}

}  // namespace

// Usage errors, runtime failures and successes all return through
// report::run_tool, so a run that dies on a bad flag still writes its
// VLACNN_TRACE file, and a failed artifact write exits 1.
int main(int argc, char** argv) {
  return report::run_tool("vlacnn-capacity", [&] { return run(argc, argv); });
}
