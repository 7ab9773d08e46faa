// vlacnn-report: inspect and gate on the structured run reports the bench
// drivers emit under VLACNN_REPORT=<dir> (see DESIGN.md §9).
//
//   vlacnn-report summarize <report.json>
//       ASCII attribution/roofline table of one report.
//
//   vlacnn-report diff <baseline.json> <current.json>
//                      [--budget-pct N] [--wall-budget-pct N]
//       Compare per-grid-point cycle counts against a committed baseline.
//       Exit 0 when every shared point (and the total) is within the cycle
//       budget (default 2%); exit 1 on any regression over budget. Wall time
//       is only gated when --wall-budget-pct is given (wall clock is noisy
//       across machines; cycles are deterministic).
//
//   vlacnn-report timeline <timeline.jsonl> [--snapshots N]
//       Analyze a VLACNN_TIMELINE file: per simulated run, detect the warm-up
//       transient, summarize the steady-state window and SLO burn-rate, and
//       tabulate up to N snapshots (default 12, 0 = all).
//
//   vlacnn-report requests <reqtrace.jsonl> [--top N] [--waterfall N]
//       Request forensics over a VLACNN_REQTRACE file: per run, the top-N
//       slowest sampled requests (default 10), a per-request span waterfall
//       with a critical-path call for the N slowest (default 3), the sketch's
//       tail exemplars, and an aggregate blame summary. Every sampled
//       request's spans are cross-checked bit-exactly against the Sterbenz
//       attribution ((queue+formation)+service == latency, and the layer
//       segments folded back-to-front == service); any mismatch exits 1.
//
//   vlacnn-report profile <kernprof.jsonl> [--point SUBSTR] [--windows N]
//       Kernel-profile explorer over a VLACNN_KERNPROF file (simulated PMU,
//       DESIGN.md §14): per grid point, the per-phase cycle attribution
//       table; across points, the hottest-phase-by-mem-stall ranking; and
//       for one chosen point (--point picks the first label containing
//       SUBSTR, default the first block) an ASCII occupancy + L2-miss-rate
//       timeline over up to N counter windows (default 16, 0 = all). Every
//       block's phase cycles are cross-checked bit-exactly against the
//       kernel's aggregate cycles (right-to-left Sterbenz fold); any
//       mismatch exits 1.
//
// Exit codes (all subcommands): 0 success, 1 semantic failure (regression
// over budget, no runs in a file, attribution mismatch, unreadable input, a
// failed artifact write), 2 usage error (bad flag or subcommand; usage goes
// to stderr).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "obs/timeline.h"
#include "report/collector.h"
#include "report/json.h"
#include "report/report.h"
#include "vpu/pmu.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s summarize <report.json>\n"
               "       %s diff <baseline.json> <current.json> "
               "[--budget-pct N] [--wall-budget-pct N]\n"
               "       %s timeline <timeline.jsonl> [--snapshots N]\n"
               "       %s requests <reqtrace.jsonl> [--top N] "
               "[--waterfall N]\n"
               "       %s profile <kernprof.jsonl> [--point SUBSTR] "
               "[--windows N]\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

vlacnn::report::RunReport load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return vlacnn::report::report_from_json(ss.str());
}

/// Columns of a `width`-column bar for `share`. The share comes from the
/// file, so it is clamped to [0, 1] (NaN reads as 0) before the cast.
int bar_columns(double share, int width) {
  return static_cast<int>((share > 0 ? std::min(share, 1.0) : 0.0) * width +
                          0.5);
}

/// One run block out of a VLACNN_TIMELINE JSONL file, rebuilt into the
/// obs structs so analyze_timeline() gives the same answer the producer
/// would have computed.
struct TimelineRun {
  std::string label;
  double slo_cycles = 0;
  double interval_cycles = 0;
  std::vector<vlacnn::obs::TimelineSnapshot> snapshots;
  std::vector<vlacnn::obs::TimelineAlert> alerts;
};

/// A number field of a JSONL line; null (a non-finite value) reads as 0.
double num(const vlacnn::report::Json& j, const char* key) {
  return vlacnn::report::num_at(j, key, 0.0);
}

/// A count field: a non-negative integer, or an error naming `key`.
std::uint64_t count(const vlacnn::report::Json& j, const char* key) {
  return vlacnn::report::uint_at(j, key);
}

std::vector<TimelineRun> load_timeline(const std::string& path) {
  using vlacnn::report::Json;
  std::vector<TimelineRun> runs;
  vlacnn::report::read_labeled_jsonl(
      path, [&](const std::string& label) { runs.emplace_back().label = label; },
      [&](const Json& j, const std::string& type) {
        TimelineRun& run = runs.back();
        if (type == "header") {
          run.slo_cycles = num(j, "slo_cycles");
          run.interval_cycles = num(j, "interval_cycles");
        } else if (type == "snapshot") {
          vlacnn::obs::TimelineSnapshot s;
          s.t_start = num(j, "t_start");
          s.t_end = num(j, "t_end");
          s.arrivals = count(j, "arrivals");
          s.drops = count(j, "drops");
          s.dispatches = count(j, "dispatches");
          s.completions = count(j, "completions");
          s.queue_depth = count(j, "queue_depth");
          s.in_flight = vlacnn::report::int_at(j, "in_flight");
          s.mean_queue = num(j, "mean_queue");
          s.utilization = num(j, "utilization");
          s.arrival_rate = num(j, "arrival_rate");
          s.completion_rate = num(j, "completion_rate");
          s.rolling_p99 = num(j, "rolling_p99");
          s.rolling_count = count(j, "rolling_count");
          s.burn_short = num(j, "burn_short");
          s.burn_long = num(j, "burn_long");
          s.alert = vlacnn::report::bool_at(j, "alert");
          s.cum_offered = count(j, "cum_offered");
          s.cum_completed = count(j, "cum_completed");
          s.cum_dropped = count(j, "cum_dropped");
          run.snapshots.push_back(s);
        } else if (type == "alert" || type == "clear") {
          vlacnn::obs::TimelineAlert a;
          a.t = num(j, "t");
          a.raised = type == "alert";
          a.burn_rate = num(j, "burn_rate");
          run.alerts.push_back(a);
        } else {
          return false;
        }
        return true;
      });
  return runs;
}

int render_timeline(const std::string& path, std::size_t max_snaps) {
  const std::vector<TimelineRun> runs = load_timeline(path);
  if (runs.empty()) {
    std::printf("%s: no timeline runs\n", path.c_str());
    return 1;
  }
  for (const TimelineRun& run : runs) {
    const vlacnn::obs::TimelineAnalysis a =
        vlacnn::obs::analyze_timeline(run.snapshots, run.alerts);
    std::printf("== %s ==\n",
                run.label.empty() ? "(unlabeled run)" : run.label.c_str());
    std::printf(
        "  %zu snapshots x %.4g cycles, slo %.4g cycles, %zu alert events\n",
        run.snapshots.size(), run.interval_cycles, run.slo_cycles,
        run.alerts.size());
    std::printf("  warm-up: %zu snapshots (%.4g cycles) until rolling p99 "
                "settles\n",
                a.warmup_snapshots, a.warmup_end_cycles);
    std::printf("  steady state: %.4g arrivals/Mcyc, %.4g completions/Mcyc, "
                "utilization %.1f%%, mean queue %.2f\n",
                a.steady_arrival_rate * 1e6, a.steady_completion_rate * 1e6,
                a.steady_utilization * 100.0, a.steady_mean_queue);
    std::printf("  rolling p99 %.4g cycles; max burn rate %.3f; %llu alerts, "
                "%.4g cycles in alert\n",
                a.final_rolling_p99, a.max_burn_rate,
                static_cast<unsigned long long>(a.alert_count),
                a.time_in_alert_cycles);
    const std::size_t n = run.snapshots.size();
    const std::size_t shown =
        max_snaps == 0 ? n : std::min<std::size_t>(n, max_snaps);
    if (shown > 0) {
      std::printf("  %12s %6s %6s %5s %6s %7s %10s %8s %5s\n", "t_end", "arr",
                  "done", "drop", "queue", "util%", "p99roll", "burn", "alert");
      for (std::size_t i = 0; i < shown; ++i) {
        const vlacnn::obs::TimelineSnapshot& s = run.snapshots[i];
        std::printf("  %12.4g %6llu %6llu %5llu %6.1f %7.1f %10.4g %8.3f %5s\n",
                    s.t_end, static_cast<unsigned long long>(s.arrivals),
                    static_cast<unsigned long long>(s.completions),
                    static_cast<unsigned long long>(s.drops), s.mean_queue,
                    s.utilization * 100.0, s.rolling_p99, s.burn_long,
                    s.alert ? "YES" : "-");
      }
      if (shown < n) {
        std::printf("  ... %zu more snapshots (--snapshots 0 shows all)\n",
                    n - shown);
      }
    }
  }
  return 0;
}

// -- request forensics --------------------------------------------------------

/// One sampled request out of a VLACNN_REQTRACE JSONL file.
struct TraceReq {
  std::uint64_t id = 0;
  double arrival = 0, dispatch = 0, completion = 0, latency = 0;
  double queue_wait = 0, formation_wait = 0, service = 0;
  double router_hop = 0;  ///< fleet traces only; 0 on single-chip traces
  int chip = -1;          ///< serving chip; -1 = single-chip trace
  int batch = 0, instance = -1;
  bool dropped = false, within_slo = true;
  std::string keep;
  std::vector<std::pair<std::string, double>> layers;  ///< name, cycles
  std::vector<std::pair<std::string, std::string>> notes;
};

/// One run block (a grid point, or an unlabeled serial simulation).
struct TraceRunBlock {
  std::string label;
  double slo_cycles = 0;
  std::uint64_t offered = 0, completed = 0, dropped = 0, violations = 0;
  std::vector<std::tuple<double, double, std::uint64_t>>
      exemplars;  ///< bucket_upper, latency, trace id
  std::vector<TraceReq> requests;
};

std::vector<TraceRunBlock> load_reqtrace(const std::string& path) {
  using vlacnn::report::Json;
  using vlacnn::report::str_at;
  std::vector<TraceRunBlock> runs;
  vlacnn::report::read_labeled_jsonl(
      path, [&](const std::string& label) { runs.emplace_back().label = label; },
      [&](const Json& j, const std::string& type) {
        TraceRunBlock& run = runs.back();
        if (type == "header") {
          run.slo_cycles = num(j, "slo_cycles");
          run.offered = count(j, "offered");
          run.completed = count(j, "completed");
          run.dropped = count(j, "dropped");
          run.violations = count(j, "violations");
        } else if (type == "exemplar") {
          run.exemplars.emplace_back(num(j, "bucket_upper"),
                                     num(j, "latency"), count(j, "id"));
        } else if (type == "request") {
          TraceReq r;
          r.id = count(j, "id");
          r.arrival = num(j, "arrival");
          r.dispatch = num(j, "dispatch");
          r.completion = num(j, "completion");
          r.latency = num(j, "latency");
          r.queue_wait = num(j, "queue_wait");
          r.formation_wait = num(j, "formation_wait");
          r.service = num(j, "service");
          // Fleet traces only (obs/reqtrace.h): absent on single-chip files.
          if (j.find("router_hop")) r.router_hop = num(j, "router_hop");
          if (j.find("chip")) r.chip = vlacnn::report::int_at(j, "chip");
          r.batch = vlacnn::report::int_at(j, "batch");
          r.instance = vlacnn::report::int_at(j, "instance");
          r.dropped = vlacnn::report::bool_at(j, "dropped");
          r.within_slo = vlacnn::report::bool_at(j, "within_slo");
          r.keep = str_at(j, "keep");
          for (const Json& seg : vlacnn::report::array_at(j, "layers")) {
            r.layers.emplace_back(str_at(seg, "name"), num(seg, "cycles"));
          }
          for (const Json& note : vlacnn::report::array_at(j, "notes")) {
            r.notes.emplace_back(str_at(note, "k"), str_at(note, "v"));
          }
          run.requests.push_back(std::move(r));
        } else {
          return false;
        }
        return true;
      });
  return runs;
}

/// The Sterbenz cross-check the producer promises: spans must reconstitute
/// the request's latency bit for bit, with the exact evaluation orders the
/// recorder used. Returns the number of violated identities (0 = exact).
int attribution_mismatches(const TraceReq& r) {
  int bad = 0;
  // Top-level spans fold left-to-right (request_sim.h's attribution; the
  // fleet extends it with a router-hop span — serving/fleet.h — and the
  // single-chip identity is its hop == 0 special case: 0.0 + x == x).
  if ((r.router_hop + (r.queue_wait + r.formation_wait)) + r.service !=
      r.completion - r.arrival) {
    ++bad;
  }
  if (r.latency != r.completion - r.arrival) ++bad;
  // Layer segments fold back-to-front (obs/reqtrace.h's exact_split chain).
  if (!r.layers.empty()) {
    double svc = 0;
    for (std::size_t i = r.layers.size(); i-- > 0;) {
      svc = r.layers[i].second + svc;
    }
    if (svc != r.service) ++bad;
  }
  return bad;
}

void print_waterfall(const TraceReq& r) {
  if (r.chip >= 0) {
    std::printf("  -- trace #%llu: %.6g cycles%s, batch %d on chip %d "
                "instance %d [%s] --\n",
                static_cast<unsigned long long>(r.id), r.latency,
                r.within_slo ? "" : " (SLO MISS)", r.batch, r.chip,
                r.instance, r.keep.c_str());
  } else {
    std::printf("  -- trace #%llu: %.6g cycles%s, batch %d on instance %d "
                "[%s] --\n",
                static_cast<unsigned long long>(r.id), r.latency,
                r.within_slo ? "" : " (SLO MISS)", r.batch, r.instance,
                r.keep.c_str());
  }
  // Fleet traces carry a leading router-hop span (serving/fleet.h);
  // single-chip traces start at queue_wait.
  std::vector<std::pair<const char*, double>> spans;
  if (r.chip >= 0) spans.emplace_back("router_hop", r.router_hop);
  spans.emplace_back("queue_wait", r.queue_wait);
  spans.emplace_back("formation_wait", r.formation_wait);
  spans.emplace_back("service", r.service);
  const char* critical = spans[0].first;
  double critical_cycles = spans[0].second;
  for (const auto& [span_name, span_cycles] : spans) {
    const double share = r.latency > 0 ? span_cycles / r.latency : 0;
    std::printf("     %-15s %12.6g  %5.1f%%  %.*s\n", span_name, span_cycles,
                share * 100.0, bar_columns(share, 24),
                "########################");
    if (span_cycles > critical_cycles) {
      critical = span_name;
      critical_cycles = span_cycles;
    }
  }
  std::printf("     critical path: %s (%.1f%% of latency)\n", critical,
              r.latency > 0 ? critical_cycles / r.latency * 100.0 : 0.0);
  if (!r.layers.empty()) {
    // The three most expensive layer segments of the service span.
    std::vector<std::pair<std::string, double>> segs = r.layers;
    std::stable_sort(segs.begin(), segs.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    std::printf("     hottest layers:");
    for (std::size_t i = 0; i < segs.size() && i < 3; ++i) {
      std::printf("%s %s %.4g", i == 0 ? "" : ",", segs[i].first.c_str(),
                  segs[i].second);
    }
    std::printf(" cycles\n");
  }
  for (const auto& [k, v] : r.notes) {
    std::printf("     note %s=%s\n", k.c_str(), v.c_str());
  }
}

int render_requests(const std::string& path, std::size_t top_n,
                    std::size_t waterfall_n) {
  const std::vector<TraceRunBlock> runs = load_reqtrace(path);
  if (runs.empty()) {
    std::printf("%s: no request-trace runs\n", path.c_str());
    return 1;
  }
  std::uint64_t mismatches = 0;
  for (const TraceRunBlock& run : runs) {
    std::printf("== %s ==\n",
                run.label.empty() ? "(unlabeled run)" : run.label.c_str());
    std::printf("  offered %llu, completed %llu, dropped %llu, "
                "SLO violations %llu (slo %.4g cycles), sampled %zu\n",
                static_cast<unsigned long long>(run.offered),
                static_cast<unsigned long long>(run.completed),
                static_cast<unsigned long long>(run.dropped),
                static_cast<unsigned long long>(run.violations),
                run.slo_cycles, run.requests.size());
    for (const TraceReq& r : run.requests) {
      mismatches += static_cast<std::uint64_t>(attribution_mismatches(r));
    }
    if (!run.exemplars.empty()) {
      std::printf("  tail exemplars (p90+ latency buckets):\n");
      for (const auto& [upper, lat, id] : run.exemplars) {
        std::printf("    bucket <= %.6g cycles: trace #%llu (%.6g cycles)\n",
                    upper, static_cast<unsigned long long>(id), lat);
      }
    }

    // Slowest-first over sampled completions (drops have zero latency and
    // their own row in the blame summary).
    std::vector<const TraceReq*> slow;
    for (const TraceReq& r : run.requests) {
      if (!r.dropped) slow.push_back(&r);
    }
    std::sort(slow.begin(), slow.end(), [](const TraceReq* a,
                                           const TraceReq* b) {
      return a->latency != b->latency ? a->latency > b->latency
                                      : a->id < b->id;
    });
    const std::size_t shown = std::min<std::size_t>(slow.size(), top_n);
    if (shown > 0) {
      std::printf("  top %zu slowest sampled requests:\n", shown);
      std::printf("  %4s %8s %12s %12s %12s %12s %5s %4s %4s %s\n", "rank",
                  "trace", "latency", "queue", "formation", "service", "batch",
                  "inst", "slo", "keep");
      for (std::size_t i = 0; i < shown; ++i) {
        const TraceReq& r = *slow[i];
        std::printf("  %4zu %8llu %12.6g %12.6g %12.6g %12.6g %5d %4d %4s "
                    "%s\n",
                    i + 1, static_cast<unsigned long long>(r.id), r.latency,
                    r.queue_wait, r.formation_wait, r.service, r.batch,
                    r.instance, r.within_slo ? "ok" : "MISS", r.keep.c_str());
      }
    }
    for (std::size_t i = 0; i < slow.size() && i < waterfall_n; ++i) {
      print_waterfall(*slow[i]);
    }

    // Aggregate blame: where the sampled completions' cycles went, and which
    // span was each request's largest (its critical path).
    double qw = 0, fw = 0, svc = 0, rh = 0;
    std::size_t blame_q = 0, blame_f = 0, blame_s = 0, explored = 0;
    for (const TraceReq* r : slow) {
      qw += r->queue_wait;
      fw += r->formation_wait;
      svc += r->service;
      rh += r->router_hop;
      if (r->queue_wait >= r->formation_wait && r->queue_wait >= r->service) {
        ++blame_q;
      } else if (r->formation_wait >= r->service) {
        ++blame_f;
      } else {
        ++blame_s;
      }
      for (const auto& [k, v] : r->notes) {
        if (k == "explore" && v != "none") ++explored;
      }
    }
    const double total = qw + fw + svc;
    if (total > 0) {
      std::printf("  blame (sampled completions): queue %.1f%%, formation "
                  "%.1f%%, service %.1f%% of cycles; critical path "
                  "queue:%zu formation:%zu service:%zu; %zu served by an "
                  "exploration batch\n",
                  qw / total * 100.0, fw / total * 100.0, svc / total * 100.0,
                  blame_q, blame_f, blame_s, explored);
      // Fleet traces only: the front-end hop's share of end-to-end cycles.
      if (rh > 0) {
        std::printf("  router hop: %.1f%% of sampled end-to-end cycles\n",
                    rh / (rh + total) * 100.0);
      }
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "vlacnn-report: %llu span-attribution identities violated — "
                 "trace spans must sum bit-exactly to completion - arrival\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  std::printf("attribution cross-check: every sampled request's spans sum "
              "bit-exactly to its latency\n");
  return 0;
}

// -- kernel-profile explorer --------------------------------------------------

/// One grid point's profile block, read back into the PMU's own records:
/// the kernel line's cycle buckets into a TimingStats and each phase line
/// into a PmuPhaseStats, whose avg VL is recomputed from the counters. Window
/// lines carry only derived rates, so each is rendered into its trajectory
/// row as it is read.
struct KernelBlock {
  std::string label;
  std::string point;  ///< "<algo> vlen<N> l2:<N> lanes<N> <attach>"
  double interval_cycles = 0;
  vlacnn::TimingStats total;
  std::vector<vlacnn::PmuPhaseStats> phases;
  std::vector<std::string> window_rows;
};

/// A window line's trajectory row: its end, a 32-column occupancy bar split
/// by each bucket's share of the window's busy cycles, and its rates.
std::string window_row(const vlacnn::report::Json& w) {
  // Truncation leaves trailing spaces rather than misordering the bands.
  const struct {
    char glyph;
    double cycles;
  } bands[] = {{'C', num(w, "compute_cycles")},
               {'M', num(w, "mem_issue_cycles")},
               {'S', num(w, "mem_stall_cycles")},
               {'.', num(w, "scalar_cycles")}};
  const double busy =
      bands[0].cycles + bands[1].cycles + bands[2].cycles + bands[3].cycles;
  char bar[33];
  int pos = 0;
  for (const auto& b : bands) {
    const int width = busy > 0 ? bar_columns(b.cycles / busy, 32) : 0;
    for (int k = 0; k < width && pos < 32; ++k) bar[pos++] = b.glyph;
  }
  while (pos < 32) bar[pos++] = ' ';
  bar[32] = '\0';
  // Wide enough for any finite double in each fixed-point field (at most
  // 309 integer digits); a number field that is null reads as 0.
  char row[2048];
  std::snprintf(row, sizeof row,
                "  %12.6g  %-32s %6.1f %6.1f %7.4f %7.4f %7.3f\n",
                num(w, "t_end"), bar, num(w, "avg_vl"),
                num(w, "lane_utilization") * 100.0, num(w, "l1_miss_rate"),
                num(w, "l2_miss_rate"), num(w, "dram_bytes_per_cycle"));
  return row;
}

std::vector<KernelBlock> load_kernprof(const std::string& path) {
  using vlacnn::report::Json;
  using vlacnn::report::str_at;
  std::vector<KernelBlock> runs;
  vlacnn::report::read_labeled_jsonl(
      path, [&](const std::string& label) { runs.emplace_back().label = label; },
      [&](const Json& j, const std::string& type) {
        KernelBlock& run = runs.back();
        if (type == "kernel") {
          // Every identity field is checked, in line order; net and layer
          // are already in the label, so only the rest prints.
          str_at(j, "net");
          vlacnn::report::int_at(j, "layer");
          const std::string algo = str_at(j, "algo");
          const std::uint64_t vlen = count(j, "vlen_bits"),
                              l2 = count(j, "l2_bytes"),
                              lanes = count(j, "lanes");
          run.point = algo + " vlen" + std::to_string(vlen) + " l2:" +
                      std::to_string(l2) + " lanes" + std::to_string(lanes) +
                      " " + str_at(j, "attach");
          run.interval_cycles = num(j, "interval_cycles");
          run.total.cycles = num(j, "cycles");
          run.total.compute_cycles = num(j, "compute_cycles");
          run.total.mem_issue_cycles = num(j, "mem_issue_cycles");
          run.total.mem_stall_cycles = num(j, "mem_stall_cycles");
          run.total.scalar_cycles = num(j, "scalar_cycles");
        } else if (type == "phase") {
          vlacnn::PmuPhaseStats& p = run.phases.emplace_back();
          p.name = str_at(j, "name");
          p.cycles = num(j, "cycles");
          p.raw.cycles = num(j, "raw_cycles");
          p.raw.compute_cycles = num(j, "compute_cycles");
          p.raw.mem_issue_cycles = num(j, "mem_issue_cycles");
          p.raw.mem_stall_cycles = num(j, "mem_stall_cycles");
          p.raw.scalar_cycles = num(j, "scalar_cycles");
          p.raw.vec_instructions = num(j, "vec_instructions");
          p.raw.vec_elems = num(j, "vec_elems");
          p.raw.flops = num(j, "flops");
          p.raw.first_level_accesses = num(j, "l1_accesses");
          p.raw.first_level_misses = num(j, "l1_misses");
          p.raw.l2_accesses = num(j, "l2_accesses");
          p.raw.l2_misses = num(j, "l2_misses");
          p.raw.mem_bytes = num(j, "mem_bytes");
        } else if (type == "window") {
          run.window_rows.push_back(window_row(j));
        } else {
          return false;
        }
        return true;
      });
  return runs;
}

/// The per-block cross-check the producer promises: phase cycle slices fold
/// right-to-left to the kernel's aggregate cycles bit for bit (the PMU's
/// Sterbenz partition). Returns 0 when exact, 1 on mismatch.
int profile_fold_mismatch(const KernelBlock& run) {
  if (run.phases.empty()) return run.total.cycles != 0 ? 1 : 0;
  double total = 0;
  for (std::size_t i = run.phases.size(); i-- > 0;) {
    total = run.phases[i].cycles + total;
  }
  return total != run.total.cycles ? 1 : 0;
}

void print_profile_table(const KernelBlock& run) {
  const vlacnn::TimingStats& t = run.total;
  const auto pct = [&](double x) {
    return t.cycles > 0 ? 100.0 * x / t.cycles : 0.0;
  };
  std::printf("== %s ==\n",
              run.label.empty() ? "(unlabeled run)" : run.label.c_str());
  std::printf("  %s — %.6g cycles "
              "(comp %.1f%%, mem %.1f%%, stall %.1f%%, scalar %.1f%%), "
              "%zu phases, %zu windows x %.4g cycles\n",
              run.point.c_str(), t.cycles, pct(t.compute_cycles),
              pct(t.mem_issue_cycles), pct(t.mem_stall_cycles),
              pct(t.scalar_cycles), run.phases.size(), run.window_rows.size(),
              run.interval_cycles);
  if (run.phases.empty()) return;
  std::printf("  %-16s %12s %6s  %-20s %6s %7s %7s %10s\n", "phase", "cycles",
              "share", "", "avg_vl", "l1miss", "l2miss", "dram_B");
  for (const vlacnn::PmuPhaseStats& p : run.phases) {
    const double share = t.cycles > 0 ? p.cycles / t.cycles : 0;
    char l1[8] = "     -", l2[8] = "     -";
    if (p.raw.first_level_accesses > 0) {
      std::snprintf(l1, sizeof l1, "%7.4f", p.raw.l1_miss_rate());
    }
    if (p.raw.l2_accesses > 0) {
      std::snprintf(l2, sizeof l2, "%7.4f", p.raw.l2_miss_rate());
    }
    std::printf("  %-16s %12.6g %5.1f%%  %-20.*s %6.1f %7s %7s %10.4g\n",
                p.name.c_str(), p.cycles, share * 100.0,
                bar_columns(share, 20), "####################",
                p.raw.avg_vl(), l1, l2, p.raw.mem_bytes);
  }
}

void print_profile_timeline(const KernelBlock& run, std::size_t max_windows) {
  std::printf("\noccupancy / miss-rate trajectory for %s:\n",
              run.label.empty() ? "(unlabeled run)" : run.label.c_str());
  if (run.window_rows.empty()) {
    std::printf("  (no counter windows — kernel shorter than one interval)\n");
    return;
  }
  const std::size_t n = run.window_rows.size();
  const std::size_t shown =
      max_windows == 0 ? n : std::min<std::size_t>(n, max_windows);
  std::printf("  %12s  %-32s %6s %6s %7s %7s %7s\n", "t_end",
              "occupancy (C/M/S/.=scalar)", "avg_vl", "lane%", "l1miss",
              "l2miss", "B/cyc");
  for (std::size_t i = 0; i < shown; ++i) {
    std::fputs(run.window_rows[i].c_str(), stdout);
  }
  if (shown < n) {
    std::printf("  ... %zu more windows (--windows 0 shows all)\n", n - shown);
  }
}

int render_profile(const std::string& path, const std::string& point,
                   std::size_t max_windows) {
  const std::vector<KernelBlock> runs = load_kernprof(path);
  if (runs.empty()) {
    std::printf("%s: no kernel profiles\n", path.c_str());
    return 1;
  }
  int mismatches = 0;
  for (const KernelBlock& run : runs) {
    print_profile_table(run);
    mismatches += profile_fold_mismatch(run);
  }

  // Hottest phases by memory-stall cycles across every profiled point: the
  // ranking that localizes a bandwidth cliff to one phase of one kernel.
  std::vector<std::pair<const KernelBlock*, const vlacnn::PmuPhaseStats*>>
      ranked;
  for (const KernelBlock& run : runs) {
    for (const vlacnn::PmuPhaseStats& p : run.phases) {
      ranked.emplace_back(&run, &p);
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->raw.mem_stall_cycles >
                            b.second->raw.mem_stall_cycles;
                   });
  const std::size_t top = std::min<std::size_t>(ranked.size(), 10);
  if (top > 0) {
    std::printf("\nhottest phases by mem-stall cycles:\n");
    std::printf("  %4s %-44s %-16s %12s %7s\n", "rank", "point", "phase",
                "stall_cyc", "l2miss");
    for (std::size_t i = 0; i < top; ++i) {
      const KernelBlock& run = *ranked[i].first;
      const vlacnn::PmuPhaseStats& p = *ranked[i].second;
      char l2[8] = "     -";
      if (p.raw.l2_accesses > 0) {
        std::snprintf(l2, sizeof l2, "%7.4f", p.raw.l2_miss_rate());
      }
      std::printf("  %4zu %-44s %-16s %12.6g %7s\n", i + 1, run.label.c_str(),
                  p.name.c_str(), p.raw.mem_stall_cycles, l2);
    }
  }

  // Windowed trajectory for one chosen point (first label match, or the
  // first block when --point was not given).
  const KernelBlock* chosen = nullptr;
  for (const KernelBlock& run : runs) {
    if (point.empty() || run.label.find(point) != std::string::npos) {
      chosen = &run;
      break;
    }
  }
  if (chosen == nullptr) {
    std::fprintf(stderr, "vlacnn-report: no profile label contains '%s'\n",
                 point.c_str());
    return 1;
  }
  print_profile_timeline(*chosen, max_windows);

  if (mismatches > 0) {
    std::fprintf(stderr,
                 "vlacnn-report: %d profile blocks violate the phase "
                 "partition — phase cycles must fold bit-exactly to the "
                 "kernel total\n",
                 mismatches);
    return 1;
  }
  std::printf("\nattribution cross-check: every block's phase cycles fold "
              "bit-exactly to its kernel total\n");
  return 0;
}

/// Every flag value of the subcommands, defaulted.
struct Options {
  vlacnn::report::DiffOptions diff;
  std::size_t snapshots = 12, top = 10, waterfall = 3, windows = 16;
  std::string point;
};

/// The one flag loop: the flags `cmd` takes after its `first` argv index.
/// Throws on an unknown flag, a missing value or a malformed one.
Options parse_options(const std::string& cmd, int first, int argc,
                      char** argv) {
  using vlacnn::kNonNegative;
  using vlacnn::parse_real;
  using vlacnn::parse_uint;
  Options o;
  for (int i = first; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string bad = "unknown or incomplete option '" + flag + "'";
    if (i + 1 == argc) throw std::runtime_error(bad);
    const char* v = argv[i + 1];
    if (cmd == "diff" && flag == "--budget-pct") {
      o.diff.cycle_budget_pct = parse_real(flag, v, kNonNegative);
    } else if (cmd == "diff" && flag == "--wall-budget-pct") {
      o.diff.wall_budget_pct = parse_real(flag, v, kNonNegative);
    } else if (cmd == "timeline" && flag == "--snapshots") {
      o.snapshots = parse_uint<std::size_t>(flag, v);
    } else if (cmd == "requests" && flag == "--top") {
      o.top = parse_uint<std::size_t>(flag, v);
    } else if (cmd == "requests" && flag == "--waterfall") {
      o.waterfall = parse_uint<std::size_t>(flag, v);
    } else if (cmd == "profile" && flag == "--point") {
      o.point = v;
    } else if (cmd == "profile" && flag == "--windows") {
      o.windows = parse_uint<std::size_t>(flag, v);
    } else {
      throw std::runtime_error(bad);
    }
  }
  return o;
}

int run(int argc, char** argv) {
  using namespace vlacnn::report;
  const std::string cmd = argc > 1 ? argv[1] : "";
  const int files = cmd == "diff" ? 2 : 1;
  if ((cmd != "summarize" && cmd != "diff" && cmd != "timeline" &&
       cmd != "requests" && cmd != "profile") ||
      argc < 2 + files) {
    return usage(argv[0]);
  }
  Options o;
  try {
    o = parse_options(cmd, 2 + files, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vlacnn-report: %s\n", e.what());
    return usage(argv[0]);
  }
  // A runtime failure (unreadable or malformed input) throws to run_tool,
  // which exits 1; only usage errors exit 2 — the contract
  // scripts/test_cli_exit_codes.sh asserts for both tools.
  if (cmd == "timeline") return render_timeline(argv[2], o.snapshots);
  if (cmd == "requests") return render_requests(argv[2], o.top, o.waterfall);
  if (cmd == "profile") return render_profile(argv[2], o.point, o.windows);
  if (cmd == "summarize") {
    std::fputs(summarize(load(argv[2])).c_str(), stdout);
    return 0;
  }
  const RunReport base = load(argv[2]);
  const RunReport cur = load(argv[3]);
  const DiffResult d = diff_reports(base, cur, o.diff);
  std::fputs(diff_to_string(d, o.diff).c_str(), stdout);
  return d.ok() ? 0 : 1;
}

}  // namespace

// Every path returns through report::run_tool, so a VLACNN_TRACE run that
// dies on a bad flag still writes its trace, and a failed artifact write
// exits 1.
int main(int argc, char** argv) {
  return vlacnn::report::run_tool("vlacnn-report",
                                  [&] { return run(argc, argv); });
}
