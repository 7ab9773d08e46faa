// Time-resolved serving telemetry (obs/sketch.h + obs/timeline.h): the
// quantile sketch's bucket math against hand-computed boundaries, the
// timeline recorder against a fully hand-traced event sequence (every
// snapshot field), burn-rate/alert threshold crossings, JSONL parse-back
// through the product JSON parser, the sorted-label sink, the env-knob
// surface, and the pin that keeps the shared number formatter
// (obs/json_util.h) emitting printf's %.17g bytes.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/json_util.h"
#include "obs/sketch.h"
#include "obs/timeline.h"
#include "report/json.h"

namespace vlacnn {
namespace {

// -- quantile sketch ----------------------------------------------------------

TEST(QuantileSketch, CtorAndMergeValidate) {
  EXPECT_THROW(obs::QuantileSketch(0.0), std::invalid_argument);
  EXPECT_THROW(obs::QuantileSketch(1.0), std::invalid_argument);
  EXPECT_THROW(obs::QuantileSketch(-0.5), std::invalid_argument);
  obs::QuantileSketch a(0.01), b(0.02);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(QuantileSketch, BucketMathMatchesHandComputation) {
  const double e = 0.01;
  const double gamma = (1.0 + e) / (1.0 - e);
  obs::QuantileSketch s(e);
  for (double v : {0.5, 1.0, 100.0, 12345.6}) {
    const int idx = s.bucket_index(v);
    EXPECT_EQ(idx, static_cast<int>(std::ceil(std::log(v) / std::log(gamma))))
        << v;
    EXPECT_DOUBLE_EQ(s.bucket_upper(idx), std::pow(gamma, idx)) << v;
    // The bucket's closing boundary covers v within the relative error.
    EXPECT_GE(s.bucket_upper(idx), v * (1.0 - 1e-12));
    EXPECT_LE(s.bucket_upper(idx) / gamma, v * (1.0 + 1e-12));
  }
}

TEST(QuantileSketch, QuantileIsNearestRankUpperBound) {
  obs::QuantileSketch s(0.01);
  for (int v = 1; v <= 100; ++v) s.observe(v);
  EXPECT_EQ(s.count(), 100u);
  // Nearest rank: q=0.5 selects the 50th smallest (= 50); the sketch answers
  // with that value's bucket boundary, within 2*rel_err above it.
  EXPECT_GE(s.quantile(0.5), 50.0);
  EXPECT_LE(s.quantile(0.5), 50.0 * 1.03);
  EXPECT_GE(s.quantile(1.0), 100.0);
  EXPECT_LE(s.quantile(1.0), 100.0 * 1.03);
  EXPECT_LE(s.quantile(0.01), 1.0 * 1.03);
  // Monotone in q.
  EXPECT_LE(s.quantile(0.25), s.quantile(0.75));
}

TEST(QuantileSketch, ZeroAndNegativeLandInExactZeroBucket) {
  obs::QuantileSketch s(0.01);
  s.observe(0.0);
  s.observe(-42.0);  // clamped
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.quantile(1.0), 0.0);
  s.observe(8.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);     // 2nd of 3 is still a zero
  EXPECT_GE(s.quantile(1.0), 8.0);     // the max escapes the zero bucket
}

TEST(QuantileSketch, MergeIsOrderIndependent) {
  obs::QuantileSketch all(0.01), left(0.01), right(0.01);
  for (int v = 1; v <= 200; ++v) {
    all.observe(v);
    (v % 2 == 0 ? left : right).observe(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(left.quantile(q), all.quantile(q)) << q;
  }
}

TEST(SlidingQuantile, WindowEvictsOldIntervals) {
  EXPECT_THROW(obs::SlidingQuantile(0), std::invalid_argument);
  obs::SlidingQuantile s(2, 0.01);
  s.observe(100.0);
  s.roll();
  s.observe(200.0);
  s.roll();
  s.observe(300.0);
  // Open interval + 2 closed: all three samples still visible.
  EXPECT_EQ(s.count(), 3u);
  EXPECT_LE(s.quantile(0.01), 100.0 * 1.03);
  s.roll();
  // The 100-cycle interval fell out of the window.
  EXPECT_EQ(s.count(), 2u);
  EXPECT_GE(s.quantile(0.01), 200.0 * 0.97);
}

// -- recorder: hand-computed snapshots ---------------------------------------

TEST(TimelineRecorder, CtorValidates) {
  obs::TimelineConfig c;
  c.interval_cycles = 0;
  EXPECT_THROW(obs::TimelineRecorder{c}, std::invalid_argument);
  c.interval_cycles = 100;
  c.rolling_window = 0;
  EXPECT_THROW(obs::TimelineRecorder{c}, std::invalid_argument);
  c.rolling_window = 8;
  c.instances = 0;
  EXPECT_THROW(obs::TimelineRecorder{c}, std::invalid_argument);
}

obs::TimelineConfig tiny_config() {
  obs::TimelineConfig c;
  c.interval_cycles = 100;
  c.rolling_window = 2;
  c.instances = 1;
  return c;
}

TEST(TimelineRecorder, HandComputedClosedLoopRun) {
  // One instance, interval 100. Two requests arrive at 0 and 10, dispatch as
  // a batch of 2 at t=10, finish at t=60 (latencies 60 and 50). A third
  // arrives at 220, runs [220, 260) with latency 40. Every snapshot field
  // below is computed by hand from those events.
  obs::TimelineRecorder rec(tiny_config());
  rec.on_arrival(0);
  rec.on_arrival(10);
  rec.on_dispatch(10, 2);
  rec.on_completion(60, 60.0, true);
  rec.on_completion(60, 50.0, true);
  rec.on_batch_done(60);
  rec.on_arrival(220);
  rec.on_dispatch(220, 1);
  rec.on_completion(260, 40.0, true);
  rec.on_batch_done(260);
  rec.finish(260);

  const auto& snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 3u);

  // [0, 100): queue depth 1 over [0,10) -> area 10; instance busy [10,60).
  const obs::TimelineSnapshot& s0 = snaps[0];
  EXPECT_EQ(s0.t_start, 0.0);
  EXPECT_EQ(s0.t_end, 100.0);
  EXPECT_EQ(s0.arrivals, 2u);
  EXPECT_EQ(s0.drops, 0u);
  EXPECT_EQ(s0.dispatches, 1u);
  EXPECT_EQ(s0.completions, 2u);
  EXPECT_EQ(s0.queue_depth, 0u);
  EXPECT_EQ(s0.in_flight, 0);
  EXPECT_DOUBLE_EQ(s0.mean_queue, 10.0 / 100.0);
  EXPECT_DOUBLE_EQ(s0.utilization, 50.0 / 100.0);
  EXPECT_DOUBLE_EQ(s0.arrival_rate, 0.02);
  EXPECT_DOUBLE_EQ(s0.completion_rate, 0.02);
  EXPECT_EQ(s0.rolling_count, 2u);
  // Sketch upper bound on max(60, 50) at 1% relative error.
  EXPECT_GE(s0.rolling_p99, 60.0);
  EXPECT_LE(s0.rolling_p99, 60.0 * 1.03);
  EXPECT_EQ(s0.burn_short, 0.0);  // no SLO configured
  EXPECT_EQ(s0.burn_long, 0.0);
  EXPECT_FALSE(s0.alert);
  EXPECT_EQ(s0.cum_offered, 2u);
  EXPECT_EQ(s0.cum_completed, 2u);
  EXPECT_EQ(s0.cum_dropped, 0u);

  // [100, 200): idle.
  const obs::TimelineSnapshot& s1 = snaps[1];
  EXPECT_EQ(s1.t_start, 100.0);
  EXPECT_EQ(s1.t_end, 200.0);
  EXPECT_EQ(s1.arrivals, 0u);
  EXPECT_EQ(s1.completions, 0u);
  EXPECT_DOUBLE_EQ(s1.mean_queue, 0.0);
  EXPECT_DOUBLE_EQ(s1.utilization, 0.0);
  EXPECT_EQ(s1.rolling_count, 2u);  // window 2 still holds the first interval

  // [200, 260): trailing partial interval from finish().
  const obs::TimelineSnapshot& s2 = snaps[2];
  EXPECT_EQ(s2.t_start, 200.0);
  EXPECT_EQ(s2.t_end, 260.0);
  EXPECT_EQ(s2.arrivals, 1u);
  EXPECT_EQ(s2.dispatches, 1u);
  EXPECT_EQ(s2.completions, 1u);
  EXPECT_DOUBLE_EQ(s2.mean_queue, 0.0);  // dispatch at the arrival instant
  EXPECT_DOUBLE_EQ(s2.utilization, 40.0 / 60.0);
  EXPECT_DOUBLE_EQ(s2.arrival_rate, 1.0 / 60.0);
  EXPECT_EQ(s2.rolling_count, 3u);
  EXPECT_EQ(s2.cum_offered, 3u);
  EXPECT_EQ(s2.cum_completed, 3u);

  EXPECT_TRUE(rec.alerts().empty());
  // finish() is idempotent: calling it again adds nothing.
  rec.finish(260);
  EXPECT_EQ(rec.snapshots().size(), 3u);
}

TEST(TimelineRecorder, EventExactlyOnBoundaryLandsInNextInterval) {
  obs::TimelineRecorder rec(tiny_config());
  rec.on_arrival(100);  // closes [0, 100) first, then counts the arrival
  rec.finish(150);
  const auto& snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].arrivals, 0u);
  EXPECT_EQ(snaps[1].t_start, 100.0);
  EXPECT_EQ(snaps[1].t_end, 150.0);
  EXPECT_EQ(snaps[1].arrivals, 1u);
}

TEST(TimelineRecorder, FinishOnExactBoundarySkipsZeroWidthInterval) {
  obs::TimelineRecorder rec(tiny_config());
  rec.on_completion(40, 10.0, true);
  rec.finish(200);  // boundaries at 100 and 200; no trailing sliver
  ASSERT_EQ(rec.snapshots().size(), 2u);
  EXPECT_EQ(rec.snapshots()[1].t_end, 200.0);
}

TEST(TimelineRecorder, BurnRateAndAlertCrossings) {
  // SLO on, 90% target -> 10% error budget, rolling window 2 intervals,
  // alert threshold 1.0. Interval 2 misses 2 of 10 -> short burn 2.0, long
  // burn over intervals {1,2} = (2/20)/0.1 = 1.0 -> alert raised at t=200.
  // Interval 3 is clean but the window {2,3} still carries the misses ->
  // stays in alert. Interval 4's window {3,4} is clean -> clear at t=400.
  obs::TimelineConfig c = tiny_config();
  c.slo_cycles = 100;
  c.attainment_target = 0.9;
  c.alert_threshold = 1.0;
  obs::TimelineRecorder rec(c);
  for (int iv = 0; iv < 4; ++iv) {
    const double t = iv * 100.0 + 50.0;
    const int misses = iv == 1 ? 2 : 0;
    for (int i = 0; i < 10; ++i) {
      const bool miss = i < misses;
      rec.on_completion(t, miss ? 150.0 : 10.0, !miss);
    }
  }
  rec.finish(400);

  const auto& snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 4u);
  EXPECT_DOUBLE_EQ(snaps[0].burn_short, 0.0);
  EXPECT_FALSE(snaps[0].alert);
  EXPECT_DOUBLE_EQ(snaps[1].burn_short, 2.0);
  EXPECT_DOUBLE_EQ(snaps[1].burn_long, 1.0);
  EXPECT_TRUE(snaps[1].alert);
  EXPECT_DOUBLE_EQ(snaps[2].burn_short, 0.0);
  EXPECT_DOUBLE_EQ(snaps[2].burn_long, 1.0);  // window {2,3}
  EXPECT_TRUE(snaps[2].alert);
  EXPECT_DOUBLE_EQ(snaps[3].burn_long, 0.0);
  EXPECT_FALSE(snaps[3].alert);

  const auto& alerts = rec.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_TRUE(alerts[0].raised);
  EXPECT_EQ(alerts[0].t, 200.0);
  EXPECT_DOUBLE_EQ(alerts[0].burn_rate, 1.0);
  EXPECT_FALSE(alerts[1].raised);
  EXPECT_EQ(alerts[1].t, 400.0);

  const obs::TimelineAnalysis a =
      obs::analyze_timeline(rec.snapshots(), rec.alerts());
  EXPECT_EQ(a.alert_count, 1u);
  EXPECT_DOUBLE_EQ(a.time_in_alert_cycles, 200.0);
  EXPECT_DOUBLE_EQ(a.max_burn_rate, 2.0);
}

TEST(TimelineRecorder, DropsCountAsMissedAndResolve) {
  obs::TimelineConfig c = tiny_config();
  c.slo_cycles = 100;
  c.attainment_target = 0.9;
  obs::TimelineRecorder rec(c);
  for (int i = 0; i < 9; ++i) rec.on_arrival(0);
  rec.on_dispatch(5, 9);
  for (int i = 0; i < 9; ++i) rec.on_completion(10, 10.0, true);
  rec.on_batch_done(10);
  rec.on_drop(20);
  rec.finish(100);
  const auto& snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].drops, 1u);
  EXPECT_EQ(snaps[0].cum_dropped, 1u);
  EXPECT_EQ(snaps[0].cum_offered, 10u);
  // 1 miss of 10 resolved / 0.1 budget = burn 1.0.
  EXPECT_DOUBLE_EQ(snaps[0].burn_short, (1.0 / 10.0) / (1.0 - 0.9));
}

// -- JSONL round trip ---------------------------------------------------------

TEST(TimelineJsonl, BlockParsesBackThroughProductParser) {
  obs::TimelineConfig c = tiny_config();
  c.slo_cycles = 100;
  c.attainment_target = 0.9;
  obs::TimelineRecorder rec(c);
  for (int i = 0; i < 10; ++i) rec.on_completion(50, 150.0, false);
  rec.finish(100);  // burn 10.0 -> alert line in the block
  ASSERT_EQ(rec.alerts().size(), 1u);

  std::istringstream in(rec.to_jsonl());
  std::string line;
  std::vector<std::string> types;
  while (std::getline(in, line)) {
    const report::Json j = report::parse_json(line);
    types.push_back(j.at("type").string);
    if (types.back() == "header") {
      EXPECT_EQ(j.at("interval_cycles").number, 100.0);
      EXPECT_EQ(j.at("rolling_window").number, 2.0);
      EXPECT_EQ(j.at("slo_cycles").number, 100.0);
      EXPECT_EQ(j.at("attainment_target").number, 0.9);
      EXPECT_EQ(j.at("instances").number, 1.0);
    } else if (types.back() == "snapshot") {
      EXPECT_EQ(j.at("completions").number, 10.0);
      // (10 misses / 10 resolved) / (1 - 0.9): %.17g round-trips it exactly.
      EXPECT_EQ(j.at("burn_short").number, 1.0 / (1.0 - 0.9));
      EXPECT_TRUE(j.at("alert").boolean);
    } else if (types.back() == "alert") {
      EXPECT_EQ(j.at("t").number, 100.0);
      EXPECT_EQ(j.at("burn_rate").number, 1.0 / (1.0 - 0.9));
    }
  }
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], "header");
  EXPECT_EQ(types[1], "snapshot");
  EXPECT_EQ(types[2], "alert");  // directly after the snapshot that tripped it
}

// -- analysis -----------------------------------------------------------------

TEST(TimelineAnalysis, WarmupDetectionAndSteadyStateMeans) {
  // Rolling p99 ramps 10 -> 80 -> 100 -> 100: the first two snapshots are
  // warm-up at the default 10% tolerance.
  std::vector<obs::TimelineSnapshot> snaps(4);
  const double p99[] = {10, 80, 100, 100};
  const double util[] = {0.2, 0.5, 0.8, 0.6};
  for (int i = 0; i < 4; ++i) {
    snaps[i].t_start = i * 100.0;
    snaps[i].t_end = i * 100.0 + 100.0;
    snaps[i].rolling_p99 = p99[i];
    snaps[i].utilization = util[i];
    snaps[i].arrival_rate = 0.01;
  }
  const obs::TimelineAnalysis a = obs::analyze_timeline(snaps, {});
  EXPECT_EQ(a.warmup_snapshots, 2u);
  EXPECT_DOUBLE_EQ(a.warmup_end_cycles, 200.0);
  EXPECT_DOUBLE_EQ(a.final_rolling_p99, 100.0);
  EXPECT_DOUBLE_EQ(a.steady_utilization, 0.7);  // mean of the last two
  EXPECT_DOUBLE_EQ(a.steady_arrival_rate, 0.01);
  EXPECT_EQ(obs::analyze_timeline({}, {}).warmup_snapshots, 0u);
}

TEST(TimelineAnalysis, UnclosedAlertRunsToLastSnapshot) {
  std::vector<obs::TimelineSnapshot> snaps(2);
  snaps[0].t_end = 100;
  snaps[1].t_start = 100;
  snaps[1].t_end = 200;
  std::vector<obs::TimelineAlert> alerts(1);
  alerts[0].t = 100;
  alerts[0].raised = true;
  const obs::TimelineAnalysis a = obs::analyze_timeline(snaps, alerts);
  EXPECT_EQ(a.alert_count, 1u);
  EXPECT_DOUBLE_EQ(a.time_in_alert_cycles, 100.0);
}

// -- sink + knobs -------------------------------------------------------------

TEST(TimelineSink, WritesBlocksInSortedLabelOrder) {
  obs::TimelineSink& sink = obs::TimelineSink::global();
  sink.reset();
  const std::string before_path = obs::timeline_path();
  const auto dir =
      std::filesystem::temp_directory_path() / "vlacnn_test_timeline";
  std::filesystem::remove_all(dir);
  const auto file = dir / "nested" / "tl.jsonl";
  obs::set_timeline_path(file.string());
  EXPECT_TRUE(obs::timeline_enabled());
  EXPECT_EQ(obs::timeline_path(), file.string());

  sink.record("zeta", "{\"type\":\"header\"}\n");
  sink.record("alpha", "{\"type\":\"header\"}\n");
  sink.record("zeta", "{\"type\":\"header\",\"v\":2}\n");  // last write wins
  EXPECT_EQ(sink.block_count(), 2u);
  EXPECT_EQ(sink.write_file(), file.string());

  std::ifstream in(file);
  ASSERT_TRUE(in.good());
  std::string l1, l2, l3, l4;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  std::getline(in, l4);
  EXPECT_EQ(report::parse_json(l1).at("label").string, "alpha");
  EXPECT_EQ(l2, "{\"type\":\"header\"}");
  EXPECT_EQ(report::parse_json(l3).at("label").string, "zeta");
  EXPECT_EQ(l4, "{\"type\":\"header\",\"v\":2}");

  sink.reset();
  EXPECT_EQ(sink.block_count(), 0u);
  // Auto labels restart after reset and are zero-padded sequence numbers.
  EXPECT_EQ(sink.next_auto_label(), "run000001");
  EXPECT_EQ(sink.next_auto_label(), "run000002");
  sink.reset();
  obs::set_timeline_path(before_path);
  std::filesystem::remove_all(dir);
}

TEST(TimelineKnobs, ProgrammaticSettersGateAndValidate) {
  const std::string before_path = obs::timeline_path();
  obs::set_timeline_path("");
  EXPECT_FALSE(obs::timeline_enabled());
  obs::TimelineSink& sink = obs::TimelineSink::global();
  sink.reset();
  sink.record("x", "{}\n");
  EXPECT_THROW(sink.write_file(), std::runtime_error);  // no path
  sink.reset();

  EXPECT_THROW(obs::set_timeline_interval_cycles(0), std::invalid_argument);
  EXPECT_THROW(obs::set_timeline_interval_cycles(-5), std::invalid_argument);
  EXPECT_THROW(obs::set_timeline_interval_cycles(
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  const double before = obs::timeline_interval_cycles();
  obs::set_timeline_interval_cycles(5e5);
  obs::TimelineConfig c = obs::default_timeline_config(3, 1234.0);
  EXPECT_EQ(c.interval_cycles, 5e5);
  EXPECT_EQ(c.instances, 3);
  EXPECT_EQ(c.slo_cycles, 1234.0);
  EXPECT_EQ(obs::default_timeline_config(0, 0).instances, 1);  // clamped
  obs::set_timeline_interval_cycles(before);
  obs::set_timeline_path(before_path);
}

// -- obs/json_util: the one number formatter and string escaper --------------

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(ObsJsonUtil, NumbersMatchPrintfAndStringsRoundTrip) {
  // Every artifact writer renders doubles through obs::append_g17
  // (std::to_chars), and the committed artifacts were written with printf's
  // %.17g. This is the oracle that the two agree byte for byte.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> numbers = {
      0.0, -0.0, inf, -inf, nan, -nan,
      DBL_TRUE_MIN, DBL_MIN, DBL_MAX, 1.0 / 3.0, 123456789.123456789, -2.5,
      // 2^53 + 1 has no double (it rounds to 2^53); its neighbours do.
      0x1p53, 0x1p53 + 1, std::nextafter(0x1p53, 0.0),
      std::nextafter(0x1p53, inf)};
  // Every power of ten with both neighbours: %g switches to exponent
  // notation below 1e-4 and from 1e17 up, and rounding to 17 digits can
  // carry into the next decade.
  for (int e = -320; e <= 308; ++e) {
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    for (double v : {std::nextafter(p, 0.0), p, std::nextafter(p, inf)}) {
      numbers.push_back(v);
      numbers.push_back(-v);
    }
  }
  for (double v : numbers) {
    std::string out;
    obs::append_g17(out, v);
    ASSERT_EQ(out, printf_g17(v)) << std::hexfloat << v;
    EXPECT_EQ(obs::g17(v), out);
  }
  // Seeded bit patterns cover every exponent, payload-carrying NaNs and the
  // subnormal range in proportion.
  Rng rng(0x5eedf0f17ull);
  for (int i = 0; i < (1 << 20); ++i) {
    const std::uint64_t bits = rng.next_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    const std::string got = obs::g17(v);
    ASSERT_EQ(got, printf_g17(v)) << std::hex << bits;
  }

  // The JSON wrapper writes null for what JSON cannot spell, and the
  // formatter's bytes otherwise; report::json_number is the same function.
  for (double v : numbers) {
    std::string out;
    obs::json_append_number(out, v);
    EXPECT_EQ(out, std::isfinite(v) ? printf_g17(v) : "null") << v;
    EXPECT_EQ(report::json_number(v), out);
  }

  // One escaper serves every writer: shorthand escapes, \u00xx for the other
  // control bytes, everything else verbatim, and parse-back to the same bytes.
  EXPECT_EQ(obs::json_escaped("q\"b\\t\tn\nr\r\x01\x1f\x7f\xc3\xa9"),
            "\"q\\\"b\\\\t\\tn\\nr\\r\\u0001\\u001f\x7f\xc3\xa9\"");
  const std::vector<std::string> strings = {
      "",
      "plain",
      "quote\" backslash\\ tab\t newline\n return\r",
      std::string("ctrl\x01\x1f mix\x7f high\xc3\xa9"),
      "run000001/cores4/vlen1024",
  };
  for (const std::string& s : strings) {
    EXPECT_EQ(report::json_quote(s), obs::json_escaped(s)) << s;
    EXPECT_EQ(report::parse_json(obs::json_escaped(s)).string, s) << s;
  }
}

}  // namespace
}  // namespace vlacnn
