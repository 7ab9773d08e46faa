// Proves the observability layer's "near-zero cost when off" claim on both
// instrumented hot loops:
//
//  1. conv simulation: conv_simulate (instrumented, all obs knobs off) vs
//     conv_simulate_no_obs (the uninstrumented baseline).
//  2. serving event loop: simulate_requests (instrumented: metrics, trace
//     spans, timeline hooks — all off) vs simulate_requests_no_obs.
//
// Each side runs in alternating repetitions, and a section fails (exit 1) if
// the disabled-path overhead exceeds the 2% budget *by more than the
// measurement's own noise floor*: the median gap must also exceed the
// baseline side's min-to-max spread, so a quiet-machine run can't fail (or
// pass) on scheduler jitter alone. Both sides report min/median/max so the
// spread is visible in the output and in BENCH_obs.json. Informational
// passes repeat each measurement with the obs paths forced on (metrics +
// tracing for conv; a live TimelineRecorder and a live RequestTraceRecorder
// for serving) to show what the enabled paths cost.
//
// Run from the build tree: ./bench_obs_overhead  (no arguments; ignores
// VLACNN_METRICS/VLACNN_TRACE/VLACNN_TIMELINE/VLACNN_REQTRACE/VLACNN_KERNPROF
// so a CI environment can't skew the verdict).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <vector>

#include "algos/registry.h"
#include "bench_common.h"
#include "net/models.h"
#include "obs/kernprof.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/collector.h"
#include "serving/arrivals.h"
#include "serving/batching.h"
#include "serving/request_sim.h"

namespace vlacnn {
namespace {

struct Point {
  ConvLayerDesc desc;
  Algo algo;
};

/// Small-image VGG-16 conv stack x every applicable algorithm: big enough that
/// a repetition takes O(seconds), small enough to repeat many times.
std::vector<Point> workload() {
  std::vector<Point> pts;
  const Network net = make_vgg16(32);
  for (const ConvLayerDesc& d : net.conv_descs()) {
    for (Algo a : kAllAlgos) {
      if (algo_applicable(a, d)) pts.push_back({d, a});
    }
  }
  return pts;
}

using SimFn = TimingStats (*)(Algo, const ConvLayerDesc&, const SimConfig&);

/// conv_simulate without its kernel-profile out-param, to match SimFn.
TimingStats conv_simulate_instrumented(Algo a, const ConvLayerDesc& d,
                                       const SimConfig& c) {
  return conv_simulate(a, d, c);
}

double time_once(SimFn fn, const std::vector<Point>& pts,
                 const SimConfig& config, double* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const Point& p : pts) *sink += fn(p.algo, p.desc, config).cycles;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Spread {
  double min = 0;
  double med = 0;
  double max = 0;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v.front(), v[v.size() / 2], v.back()};
}

struct Measurement {
  Spread base;  ///< conv_simulate_no_obs
  Spread obs;   ///< conv_simulate
};

/// Alternates baseline/instrumented repetitions so drift (thermal, other
/// processes) hits both sides equally.
Measurement measure(const std::vector<Point>& pts, const SimConfig& config,
                    int reps) {
  double sink = 0;
  // Warm-up: one untimed pass of each path.
  time_once(&conv_simulate_no_obs, pts, config, &sink);
  time_once(&conv_simulate_instrumented, pts, config, &sink);
  std::vector<double> base_ms, obs_ms;
  for (int r = 0; r < reps; ++r) {
    base_ms.push_back(time_once(&conv_simulate_no_obs, pts, config, &sink));
    obs_ms.push_back(
        time_once(&conv_simulate_instrumented, pts, config, &sink));
  }
  if (sink == 12345.0) std::printf("(unreachable)\n");  // defeat DCE
  return {spread(base_ms), spread(obs_ms)};
}

void print_spread(const char* label, const Spread& s, const char* suffix) {
  std::printf("%-20s min %8.2f  median %8.2f  max %8.2f ms%s\n", label, s.min,
              s.med, s.max, suffix);
}

// -- serving event loop -------------------------------------------------------

/// Poisson traffic at ~80% utilization of 4 adaptively-batched instances,
/// with a queue bound tight enough that bursts drop and an SLO tight enough
/// that some requests miss — every hook in the loop (arrival, drop, dispatch,
/// completion, batch-done) fires on a realistic mix.
constexpr std::uint64_t kServeRequests = 1'500'000;

serving::ServingStats serve_once_impl(bool instrumented,
                                      obs::TimelineRecorder* rec,
                                      obs::RequestTraceRecorder* rrec) {
  serving::RequestSimConfig rc;
  rc.instances = 4;
  rc.cost = {50000, 9000};
  rc.queue_capacity = 64;
  rc.slo_cycles = 200000;
  rc.timeline = rec;
  rc.reqtrace = rrec;
  serving::PoissonArrivals arrivals(4500.0, kServeRequests, 7);
  serving::AdaptiveBatchPolicy policy(8, 40000);
  return instrumented ? serving::simulate_requests(rc, arrivals, policy)
                      : serving::simulate_requests_no_obs(rc, arrivals, policy);
}

/// What the serving-side informational pass forces on, one at a time.
enum class ServeExtra { kNone, kTimeline, kReqTrace };

double serve_once(bool instrumented, ServeExtra extra, double* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  if (extra == ServeExtra::kTimeline) {
    obs::TimelineConfig tcfg;
    tcfg.interval_cycles = 1e6;
    tcfg.slo_cycles = 200000;
    tcfg.instances = 4;
    obs::TimelineRecorder rec(tcfg);
    *sink += serve_once_impl(instrumented, &rec, nullptr).mean_latency;
    *sink += static_cast<double>(rec.snapshots().size());
  } else if (extra == ServeExtra::kReqTrace) {
    obs::ReqTraceConfig rtc;
    rtc.top_k = 8;
    rtc.slo_cycles = 200000;
    rtc.service_layers = {{"conv1/direct", 1.0},
                          {"conv2/gemm6", 2.0},
                          {"conv3/winograd", 0.5}};
    obs::RequestTraceRecorder rec(rtc);
    *sink += serve_once_impl(instrumented, nullptr, &rec).mean_latency;
    *sink += static_cast<double>(rec.sampled().size());
  } else {
    *sink += serve_once_impl(instrumented, nullptr, nullptr).mean_latency;
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Measurement measure_serving(int reps, ServeExtra extra, double* sink) {
  serve_once(false, ServeExtra::kNone, sink);  // warm-up, one untimed pass each
  serve_once(true, extra, sink);
  std::vector<double> base_ms, obs_ms;
  for (int r = 0; r < reps; ++r) {
    base_ms.push_back(serve_once(false, ServeExtra::kNone, sink));
    obs_ms.push_back(serve_once(true, extra, sink));
  }
  return {spread(base_ms), spread(obs_ms)};
}

int run(int argc, char** argv) {
  // --quick (CI): fewer reps and no informational enabled-path passes. The
  // verdict logic is identical — the noise floor scales with the shorter run.
  const bool quick =
      argc > 1 && std::string_view(argv[1]) == std::string_view("--quick");

  std::printf("\n================================================================\n");
  std::printf("bench_obs_overhead: cost of the vlacnn::obs layer%s\n",
              quick ? " (--quick)" : "");
  std::printf("================================================================\n");

  // The verdict must reflect the *disabled* path regardless of environment.
  obs::set_metrics_mode(obs::ReportMode::kOff);
  obs::set_timeline_path("");
  obs::set_reqtrace_path("");
  obs::set_kernprof_path("");

  const std::vector<Point> pts = workload();
  const SimConfig config = make_sim_config(512, 1u << 20);
  const int kReps = quick ? 5 : 15;      // gated measurement
  const int kInfoReps = quick ? 0 : 7;   // informational enabled-path pass
  std::printf("workload: %zu (layer, algo) points, VGG-16 @ 32x32, "
              "VLEN=512, L2=1MB, %d reps each side\n\n",
              pts.size(), kReps);

  const Measurement off = measure(pts, config, kReps);
  const double off_pct = (off.obs.med / off.base.med - 1.0) * 100.0;
  const double gap_ms = off.obs.med - off.base.med;
  const double noise_ms = off.base.max - off.base.min;
  print_spread("no-obs baseline", off.base, "");
  char tail[64];
  std::snprintf(tail, sizeof tail, "   overhead %+.2f%%", off_pct);
  print_spread("obs disabled", off.obs, tail);
  std::printf("median gap %+.2f ms vs baseline spread (noise floor) %.2f ms\n",
              gap_ms, noise_ms);

  // Informational: the same workload with metrics + tracing on.
  if (kInfoReps > 0) {
    const auto trace_path = std::filesystem::temp_directory_path() /
                            "bench_obs_overhead.trace.json";
    obs::set_metrics_mode(obs::ReportMode::kText);
    obs::Tracer::global().open(trace_path.string());
    const Measurement on = measure(pts, config, kInfoReps);
    obs::Tracer::global().close();
    obs::set_metrics_mode(obs::ReportMode::kOff);
    std::filesystem::remove(trace_path);
    std::snprintf(tail, sizeof tail, "   overhead %+.2f%%  (informational)",
                  (on.obs.med / on.base.med - 1.0) * 100.0);
    print_spread("obs enabled (m+t)", on.obs, tail);

    // Informational: the same workload with the simulated PMU attached
    // (VLACNN_KERNPROF — phase deltas, counter windows, sink recording).
    const auto kp_path = std::filesystem::temp_directory_path() /
                         "bench_obs_overhead.kernprof.jsonl";
    obs::set_kernprof_path(kp_path.string());
    const Measurement kp = measure(pts, config, kInfoReps);
    obs::set_kernprof_path("");
    obs::KernProfSink::global().reset();
    std::filesystem::remove(kp_path);
    std::snprintf(tail, sizeof tail, "   overhead %+.2f%%  (informational)",
                  (kp.obs.med / kp.base.med - 1.0) * 100.0);
    print_spread("kernprof enabled", kp.obs, tail);
  }

  // Two-condition verdict: the budget can only fail when the median gap is
  // both over 2% and larger than what the baseline side drifts on its own —
  // sub-noise percentages (like the −0.29% a previous baseline recorded) are
  // measurement artifacts either way.
  const bool conv_pass = !(off_pct >= 2.0 && gap_ms > noise_ms);
  std::printf("\nconv disabled-path budget: < 2%% (gap must also exceed the "
              "noise floor)  ->  %s\n",
              conv_pass ? "PASS" : "FAIL");

  // -- serving event loop -----------------------------------------------------
  std::printf("\nserving loop: %llu Poisson requests, 4 instances, "
              "adaptive(8) batching, %d reps each side\n\n",
              static_cast<unsigned long long>(kServeRequests), kReps);
  double sink = 0;
  const Measurement srv = measure_serving(kReps, ServeExtra::kNone, &sink);
  const double srv_pct = (srv.obs.med / srv.base.med - 1.0) * 100.0;
  const double srv_gap_ms = srv.obs.med - srv.base.med;
  const double srv_noise_ms = srv.base.max - srv.base.min;
  print_spread("no-obs loop", srv.base, "");
  std::snprintf(tail, sizeof tail, "   overhead %+.2f%%", srv_pct);
  print_spread("obs loop disabled", srv.obs, tail);
  std::printf("median gap %+.2f ms vs baseline spread (noise floor) %.2f ms\n",
              srv_gap_ms, srv_noise_ms);

  // Informational: the same loop feeding a live TimelineRecorder (1e6-cycle
  // snapshots, SLO burn tracking) — what VLACNN_TIMELINE actually costs —
  // and then a live RequestTraceRecorder (top-8 tail sampling, 3-layer span
  // splitting, latency exemplars) — what VLACNN_REQTRACE actually costs.
  if (kInfoReps > 0) {
    const Measurement srv_on =
        measure_serving(kInfoReps, ServeExtra::kTimeline, &sink);
    std::snprintf(tail, sizeof tail, "   overhead %+.2f%%  (informational)",
                  (srv_on.obs.med / srv_on.base.med - 1.0) * 100.0);
    print_spread("timeline enabled", srv_on.obs, tail);
    const Measurement srv_rt =
        measure_serving(kInfoReps, ServeExtra::kReqTrace, &sink);
    std::snprintf(tail, sizeof tail, "   overhead %+.2f%%  (informational)",
                  (srv_rt.obs.med / srv_rt.base.med - 1.0) * 100.0);
    print_spread("reqtrace enabled", srv_rt.obs, tail);
  }
  if (sink == 54321.0) std::printf("(unreachable)\n");  // defeat DCE

  const bool srv_pass = !(srv_pct >= 2.0 && srv_gap_ms > srv_noise_ms);
  std::printf("\nserving disabled-path budget: < 2%% (gap must also exceed "
              "the noise floor)  ->  %s\n",
              srv_pass ? "PASS" : "FAIL");

  const bool pass = conv_pass && srv_pass;
  std::printf("\noverall: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace vlacnn

int main(int argc, char** argv) {
  return vlacnn::report::run_tool("bench_obs_overhead", [&] {
    return vlacnn::run(argc, argv);
  });
}
