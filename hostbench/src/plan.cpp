// plan-warm / plan-observed: answer a list of capacity and fleet planning
// questions against a private copy of the committed (warm) sweep cache.
// plan-observed runs the fleet questions of the same list with the timeline
// and request-trace sinks on, writing them to scratch files after every
// question.
//
// Inputs (one line per question, written by run.py):
//   capacity <net> <oracle|learned|fixed:ALGO> <load_rps> <slo_ms> <requests> <seed>
//   fleet <rr|jsq|p2c> <vgg16_share> <load_rps> <slo_ms> <requests> <seed>
//         <fleet_seed> <hop_cycles>
//
// A warm question must not simulate a grid point: a ResultsDb that grows
// while answering is a failed question, as is any exception. Every fleet
// answer is re-simulated with its request log to check the exact latency
// split, and every capacity candidate must account for all its requests.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "area/area_model.h"
#include "bench.h"
#include "dispatch/learned_dispatcher.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"
#include "net/models.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "serving/fleet_planner.h"
#include "serving/request_sim.h"
#include "sweep/sweep.h"

namespace hostbench {

using namespace vlacnn;
using namespace vlacnn::serving;

namespace {

struct Question {
  bool fleet = false;
  std::size_t net = 0;       ///< capacity: index into Setup::nets
  std::string dispatch;      ///< capacity: oracle | learned | fixed:<algo>
  std::string router;        ///< fleet: rr | jsq | p2c
  double vgg16_share = 0.5;  ///< fleet: mix weight of vgg16 (yolo20 the rest)
  double hop_cycles = 0;     ///< fleet: router hop
  double load_rps = 0;
  double slo_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t seed = 0;
  std::uint64_t fleet_seed = 0;
};

std::vector<Question> parse_questions(const std::string& path) {
  std::vector<Question> qs;
  for (const auto& f : read_fields(path)) {
    Question q;
    if (f[0] == "capacity" && f.size() == 7) {
      if (f[1] != "vgg16" && f[1] != "yolo20") {
        throw std::runtime_error("plan: unknown net '" + f[1] + "'");
      }
      q.net = f[1] == "vgg16" ? 0 : 1;
      q.dispatch = f[2];
      q.load_rps = std::stod(f[3]);
      q.slo_ms = std::stod(f[4]);
      q.requests = std::stoull(f[5]);
      q.seed = std::stoull(f[6]);
    } else if (f[0] == "fleet" && f.size() == 9) {
      q.fleet = true;
      q.router = f[1];
      q.vgg16_share = std::stod(f[2]);
      q.load_rps = std::stod(f[3]);
      q.slo_ms = std::stod(f[4]);
      q.requests = std::stoull(f[5]);
      q.seed = std::stoull(f[6]);
      q.fleet_seed = std::stoull(f[7]);
      q.hop_cycles = std::stod(f[8]);
    } else {
      throw std::runtime_error("plan: bad input line starting '" + f[0] + "'");
    }
    qs.push_back(std::move(q));
  }
  if (qs.empty()) throw std::runtime_error("plan: no questions in inputs");
  return qs;
}

/// Everything answering needs before the first question: the networks, the
/// warm cache (a private copy of the committed one) and, for learned
/// dispatch, one fitted and lowered forest per network.
struct Setup {
  std::unique_ptr<ResultsDb> db;
  std::unique_ptr<SweepDriver> driver;
  std::vector<Network> nets;  ///< [0] vgg16@224, [1] yolov3-20@608
  std::vector<Dataset> datasets;
  std::vector<std::shared_ptr<const dispatch::FlatForest>> forests;
  std::vector<ServiceModelFactory> learned;
  double db_load_ms = 0;
  double fit_ms = 0;
};

Setup set_up(const Options& opt, SpanLog* spans, long rep) {
  Scope root(spans, "setup", rep);
  Setup s;
  {
    Scope sc(spans, "nets.build", rep, root.id());
    s.nets = {make_vgg16(224), make_yolov3(20, 608)};
  }
  const std::string copy = opt.tmpdir + "/warm.csv";
  {
    Scope sc(spans, "cache.copy", rep, root.id());
    copy_file(opt.cache, copy);
  }
  Clock::time_point t0 = Clock::now();
  {
    Scope sc(spans, "sweep.db_load", rep, root.id());
    s.db = std::make_unique<ResultsDb>(copy);
    s.driver = std::make_unique<SweepDriver>(s.db.get());
  }
  s.db_load_ms = ms_between(t0, Clock::now());

  // The same training the capacity CLI does for --dispatch learned: the
  // paper's selector over the Paper II grid, lowered for the hot path.
  t0 = Clock::now();
  Scope fit(spans, "dispatch.fit", rep, root.id());
  dispatch::DispatchConfig dc;
  dc.dispatch_cycles_per_layer = dispatch::default_dispatch_cycles();
  for (const Network& net : s.nets) {
    Dataset ds = build_selection_dataset(*s.driver, {&net}, paper2_vlens(),
                                         paper2_l2_sizes());
    std::vector<std::size_t> all(ds.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    RandomForest forest;
    forest.fit(ds, all, ForestParams{});
    auto flat = std::make_shared<const dispatch::FlatForest>(
        forest, ds.num_classes());
    s.learned.push_back(
        dispatch::learned_service_factory(flat, s.driver.get(), net, dc));
    s.forests.push_back(std::move(flat));
    s.datasets.push_back(std::move(ds));
  }
  fit.close();
  s.fit_ms = ms_between(t0, Clock::now());
  return s;
}

BatchPolicySpec cli_policy(double clock_hz) {
  // vlacnn-capacity's default: adaptive batching up to 8, 1 ms flush.
  return {BatchPolicySpec::Kind::kAdaptive, 8, 1e-3 * clock_hz};
}

CapacityQuery capacity_query(const Question& q) {
  CapacityQuery cq;
  cq.load_rps = q.load_rps;
  cq.slo_ms = q.slo_ms;
  cq.requests = q.requests;
  cq.seed = q.seed;
  cq.policy = cli_policy(cq.clock_hz);
  return cq;
}

FleetQuery fleet_query(const Question& q) {
  FleetQuery fq;
  fq.load_rps = q.load_rps;
  fq.slo_ms = q.slo_ms;
  fq.requests = q.requests;
  fq.seed = q.seed;
  fq.policy = cli_policy(fq.clock_hz);
  fq.router.kind = router_kind_from_string(q.router);
  fq.router.seed = q.fleet_seed;
  fq.router_hop_cycles = q.hop_cycles;
  return fq;
}

FleetTrafficMix fleet_mix(const Question& q) {
  FleetTrafficMix mix;
  mix.names = {"vgg16", "yolo20"};
  mix.shares = {q.vgg16_share, 1.0 - q.vgg16_share};
  mix.seed = q.seed;  // as vlacnn-capacity fleet does
  return mix;
}

/// What one answered question hands to the checks and the metrics.
struct Answer {
  std::vector<CapacityCandidate> capacity;
  FleetPlan fleet;
  std::uint64_t offered = 0;  ///< simulated requests behind the answer
};

Answer answer(const Setup& s, const CapacityPlanner& capacity,
              const FleetPlanner& fleet, const Question& q) {
  Answer a;
  if (q.fleet) {
    a.fleet = fleet.plan(s.nets, fleet_mix(q), fleet_query(q));
    for (const FleetCandidate& c : a.fleet.candidates) {
      if (c.simulated) a.offered += c.stats.fleet.offered;
    }
    return a;
  }
  const Network& net = s.nets[q.net];
  const CapacityQuery cq = capacity_query(q);
  if (q.dispatch == "oracle") {
    a.capacity = capacity.evaluate_grid(net, cq, std::nullopt);
  } else if (q.dispatch == "learned") {
    a.capacity = capacity.evaluate_grid(net, cq, s.learned[q.net]);
  } else if (q.dispatch.rfind("fixed:", 0) == 0) {
    a.capacity =
        capacity.evaluate_grid(net, cq, algo_from_string(q.dispatch.substr(6)));
  } else {
    throw std::runtime_error("plan: unknown dispatch '" + q.dispatch + "'");
  }
  for (const CapacityCandidate& c : a.capacity) a.offered += c.stats.offered;
  return a;
}

/// Every capacity candidate served or dropped exactly the requests asked.
bool capacity_ok(const Question& q, const Answer& a) {
  if (a.capacity.empty()) return false;
  for (const CapacityCandidate& c : a.capacity) {
    if (c.stats.offered != q.requests ||
        c.stats.completed + c.stats.dropped != c.stats.offered) {
      return false;
    }
  }
  return true;
}

/// Re-simulate the plan's answer (the cheapest feasible fleet, else the first
/// simulated one) from its composition with a request log: the stats must
/// reproduce byte for byte, and every completed request must satisfy
///   (router_hop + (queue_wait + formation_wait)) + service
///     == completion - arrival
/// exactly in floating point.
bool fleet_ok(const Setup& s, const Question& q, const FleetPlan& plan) {
  const FleetCandidate* c = plan.best ? &*plan.best : nullptr;
  for (const FleetCandidate& cand : plan.candidates) {
    if (c == nullptr && cand.simulated) c = &cand;
  }
  if (c == nullptr) return true;  // every composition pruned: nothing ran

  const FleetQuery fq = fleet_query(q);
  FleetConfig fc;
  fc.mix = fleet_mix(q);
  fc.router = fq.router;
  fc.policy = fq.policy;
  fc.queue_capacity = fq.queue_capacity;
  fc.slo_cycles = fq.slo_ms * 1e-3 * fq.clock_hz;
  fc.router_hop_cycles = fq.router_hop_cycles;
  fc.attainment_target = fq.attainment_target;
  const AreaModel area;
  for (std::size_t t = 0; t < plan.chip_types.size(); ++t) {
    const ServingPoint& p = plan.chip_types[t];
    FleetChip chip;
    chip.spec.point = p;
    for (const Network& net : s.nets) {
      chip.costs.push_back(batch_cost_model(*s.driver, net, p.vlen_bits,
                                            p.l2_slice_bytes(), std::nullopt));
    }
    chip.area_mm2 = area.chip_mm2(p.vlen_bits, p.l2_total_bytes, p.cores);
    for (int n = 0; n < c->counts[t]; ++n) fc.chips.push_back(chip);
  }
  std::vector<FleetRequestRecord> log;
  fc.request_log = &log;
  ArrivalSpec as;
  as.kind = ArrivalSpec::Kind::kPoisson;
  as.mean_interarrival_cycles = fq.clock_hz / fq.load_rps;
  as.requests = fq.requests;
  const FleetStats stats = simulate_fleet(fc, *make_arrivals(as, fq.seed));
  if (stats.to_json() != c->stats.to_json() ||
      log.size() != stats.fleet.completed) {
    return false;
  }
  for (const FleetRequestRecord& r : log) {
    if (!((r.router_hop + (r.rec.queue_wait + r.rec.formation_wait)) +
              r.rec.service ==
          r.rec.completion - r.rec.arrival)) {
      return false;
    }
  }
  return true;
}

/// Per-layer tallies of the traced pass beyond what the span log holds.
struct Tally {
  std::uint64_t capacity_offered = 0, fleet_offered = 0;
  std::size_t enumerated = 0, simulated = 0;
  std::size_t learned_questions = 0, predictions = 0;
  std::uint64_t explorations = 0, gap_bp_sum = 0, gap_points = 0;
  std::uint64_t sink_bytes = 0, sink_blocks = 0;
};

struct Pass {
  std::vector<double> op_ms;
  std::uint64_t offered = 0;
};

/// One pass over the question list. With a span log, every question also
/// runs the traced per-layer probes and fills `tally`.
Pass plan_pass(const Setup& s, const std::vector<Question>& qs,
               bool observed, SpanLog* spans, Result& r, Tally* tally) {
  const CapacityPlanner capacity(s.driver.get());
  const FleetPlanner fleet(s.driver.get());
  const std::vector<ServingPoint> grid = ServingSimulator::grid_points();
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& explorations = reg.counter("dispatch.explorations");
  obs::Histogram& gap_bp = reg.histogram("dispatch.oracle_gap_bp");
  obs::Counter& db_misses = reg.counter("results_db.miss");

  Pass pass;
  pass.op_ms.assign(qs.size(), 0.0);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const Question& q = qs[i];
    const long item = static_cast<long>(i);
    ++r.attempted;
    Clock::time_point t0 = Clock::now();
    try {
      Scope question(spans, "question", item);
      const std::size_t rows_before = s.db->size();
      const std::uint64_t misses_before = db_misses.value();
      const std::uint64_t expl_before = explorations.value();
      const std::uint64_t gap_sum_before = gap_bp.sum();
      const std::uint64_t gap_count_before = gap_bp.count();

      t0 = Clock::now();
      Scope op(spans, q.fleet ? "serving.fleet" : "serving.capacity", item,
               question.id());
      const Answer a = answer(s, capacity, fleet, q);
      op.close();
      std::uint64_t blocks = 0, bytes = 0;
      if (observed) {
        Scope w(spans, "obs.sink_write", item, question.id());
        blocks = obs::TimelineSink::global().block_count() +
                 obs::ReqTraceSink::global().block_count();
        obs::TimelineSink::global().write_file();
        obs::ReqTraceSink::global().write_file();
        bytes = file_bytes(obs::timeline_path()) +
                file_bytes(obs::reqtrace_path());
        obs::TimelineSink::global().reset();
        obs::ReqTraceSink::global().reset();
      }
      pass.op_ms[i] = ms_between(t0, Clock::now());
      pass.offered += a.offered;

      bool ok = s.db->size() == rows_before &&
                db_misses.value() == misses_before;
      if (q.fleet) {
        Scope v(spans, "verify", item, question.id());
        ok = ok && fleet_ok(s, q, a.fleet);
        // The re-simulation fed the sinks too; they belong to no answer.
        obs::TimelineSink::global().reset();
        obs::ReqTraceSink::global().reset();
      } else {
        ok = ok && capacity_ok(q, a);
      }
      if (!ok) ++r.failed;
      if (spans == nullptr) continue;

      // Traced probes: warm lookups and the parts of a plan timed apart.
      const ServingPoint& gp = grid[i % grid.size()];
      if (q.fleet) {
        tally->fleet_offered += a.offered;
        tally->enumerated += a.fleet.candidates.size();
        for (const FleetCandidate& c : a.fleet.candidates) {
          tally->simulated += c.simulated ? 1 : 0;
        }
        for (const Network& net : s.nets) {
          Scope sc(spans, "sweep.lookup", item, question.id());
          s.driver->network_optimal(net, gp.vlen_bits, gp.l2_slice_bytes());
        }
        Scope sc(spans, "serving.fleet_menu", item, question.id());
        fleet.chip_type_menu(s.nets, fleet_mix(q), fleet_query(q));
      } else {
        tally->capacity_offered += a.offered;
        const Network& net = s.nets[q.net];
        if (q.dispatch == "learned") {
          ++tally->learned_questions;
          tally->explorations += explorations.value() - expl_before;
          tally->gap_bp_sum += gap_bp.sum() - gap_sum_before;
          tally->gap_points += gap_bp.count() - gap_count_before;
          {
            Scope sc(spans, "sweep.lookup", item, question.id());
            s.driver->layer_algo_cycles(net, gp.vlen_bits, gp.l2_slice_bytes());
          }
          Scope sc(spans, "dispatch.predict", item, question.id());
          const dispatch::FlatForest& forest = *s.forests[q.net];
          bool labels_ok = true;
          for (const std::vector<float>& x : s.datasets[q.net].x) {
            const int label = forest.predict(x);
            labels_ok = labels_ok && label >= 0 && label < forest.num_labels();
          }
          if (!labels_ok) ++r.failed;
          tally->predictions += s.datasets[q.net].x.size();
        } else {
          Scope sc(spans, "sweep.lookup", item, question.id());
          s.driver->network_optimal(net, gp.vlen_bits, gp.l2_slice_bytes());
        }
      }
      tally->sink_blocks += blocks;
      tally->sink_bytes += bytes;
      if (s.db->size() != rows_before ||
          db_misses.value() != misses_before) {
        ++r.failed;  // a traced lookup had to simulate: the cache is not warm
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hostbench: question %zu failed: %s\n", i,
                   e.what());
      if (pass.op_ms[i] == 0.0) pass.op_ms[i] = ms_between(t0, Clock::now());
      ++r.failed;
    }
  }
  return pass;
}

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

}  // namespace

Result run_plan(const Options& opt, bool observed) {
  const std::vector<Question> qs = parse_questions(opt.inputs);
  Result r;
  std::size_t fleet_questions = 0;
  for (const Question& q : qs) fleet_questions += q.fleet ? 1 : 0;
  if (observed) {
    obs::set_timeline_path(opt.tmpdir + "/timeline.jsonl");
    obs::set_reqtrace_path(opt.tmpdir + "/reqtrace.jsonl");
    // One snapshot per 50 simulated seconds. The default cadence targets
    // ~256 snapshots over the expected horizon, but an overloaded candidate
    // runs far past it and writes thousands per block.
    obs::set_timeline_interval_cycles(1e11);
  }

  constexpr int kSetups = 9;
  std::unique_ptr<SpanLog> spans = opt.trace ? std::make_unique<SpanLog>()
                                             : nullptr;
  std::vector<double> setup_s, db_load_ms, fit_ms;
  Setup s;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    s = set_up(opt, spans.get(), rep);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    db_load_ms.push_back(s.db_load_ms);
    fit_ms.push_back(s.fit_ms);
  }

  // Whole passes over the list (at least one) while another pass would end
  // within half a pass of --seconds, so every run answers the same mix of
  // questions. A question's host time is its fastest pass: a burst of
  // contention on a shared host has to hit it in every pass to count.
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  const auto another_pass = [&] {
    const double spent = ms_between(start, Clock::now());
    const double per_pass = spent / static_cast<double>(passes.size());
    return !opt.trace && spent + 0.5 * per_pass < opt.seconds * 1e3;
  };
  do {
    passes.push_back(plan_pass(s, qs, observed, nullptr, r, nullptr));
  } while (another_pass());
  Pass untraced;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    double fastest = passes.front().op_ms[i];
    for (const Pass& p : passes) fastest = std::min(fastest, p.op_ms[i]);
    untraced.op_ms.push_back(fastest);
  }
  untraced.offered = passes.front().offered;

  const double sim_rps = static_cast<double>(untraced.offered) /
                         (sum(untraced.op_ms) / 1e3);
  r.info.push_back(format(
      "inputs: %zu planning questions (%zu capacity, %zu fleet), %llu "
      "simulated requests per pass, %zu pass%s, obs sinks %s",
      qs.size(), qs.size() - fleet_questions, fleet_questions,
      static_cast<unsigned long long>(untraced.offered), passes.size(),
      passes.size() == 1 ? "" : "es", observed ? "on" : "off"));
  if (!opt.trace) {
    add_end_to_end(r, setup_s, untraced.op_ms);
    r.info.push_back(format("serve.sim_requests_per_s=%.1f", sim_rps));
    return r;
  }

  obs::set_metrics_mode(obs::ReportMode::kText);
  Tally t;
  const Pass traced = plan_pass(s, qs, observed, spans.get(), r, &t);
  obs::set_metrics_mode(obs::ReportMode::kOff);

  const SpanLog& sp = *spans;
  const auto n = [&](const char* name) {
    return static_cast<double>(sp.count(name));
  };
  r.metric("sweep.db_load_ms", median(db_load_ms));
  r.metric("sweep.db_rows", static_cast<double>(s.db->size()));
  r.metric("sweep.lookup_us",
           per(sp.total_ms("sweep.lookup") * 1e3, n("sweep.lookup")));
  r.metric("serving.capacity_ms",
           per(sp.total_ms("serving.capacity"), n("serving.capacity")));
  r.metric("serving.capacity_ns_per_req",
           per(sp.total_ms("serving.capacity") * 1e6,
               static_cast<double>(t.capacity_offered)));
  r.metric("serving.fleet_menu_ms",
           per(sp.total_ms("serving.fleet_menu"), n("serving.fleet_menu")));
  r.metric("serving.fleet_ms",
           per(sp.total_ms("serving.fleet"), n("serving.fleet")));
  r.metric("serving.fleet_ns_per_req",
           per(sp.total_ms("serving.fleet") * 1e6,
               static_cast<double>(t.fleet_offered)));
  r.metric("serving.fleet_simulated_frac",
           per(static_cast<double>(t.simulated),
               static_cast<double>(t.enumerated)));
  r.metric("dispatch.fit_ms", median(fit_ms));
  r.metric("dispatch.predict_ns",
           per(sp.total_ms("dispatch.predict") * 1e6,
               static_cast<double>(t.predictions)));
  r.metric("dispatch.explorations",
           per(static_cast<double>(t.explorations),
               static_cast<double>(t.learned_questions)));
  r.metric("dispatch.oracle_gap_pct",
           per(static_cast<double>(t.gap_bp_sum) / 100.0,
               static_cast<double>(t.gap_points)));
  r.metric("obs.sink_write_ms",
           per(sp.total_ms("obs.sink_write"), static_cast<double>(qs.size())));
  r.metric("obs.bytes", per(static_cast<double>(t.sink_bytes),
                            static_cast<double>(qs.size())));
  r.metric("obs.blocks", per(static_cast<double>(t.sink_blocks),
                             static_cast<double>(qs.size())));
  r.metric("serve.sim_requests_per_s", sim_rps);
  r.metric("trace.overhead_pct",
           (sum(traced.op_ms) / sum(untraced.op_ms) - 1.0) * 100.0);
  r.metric("trace.span_coverage",
           sp.children_ms("question") / sp.total_ms("question"));
  if (!opt.spans.empty()) sp.write_jsonl(opt.spans);
  return r;
}

}  // namespace hostbench
