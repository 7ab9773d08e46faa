// Per-request tracing (obs/reqtrace.h): the tail-based sampler's retention
// contract (k slowest with deterministic ties, 100% of drops and SLO
// violations, seeded head sample), the Sterbenz exactness of every sampled
// trace's span attribution — (queue_wait + formation_wait) + service folds
// left-to-right to completion - arrival, and the per-layer segments fold
// right-to-left back to the service span, bit for bit — the env-knob surface,
// JSONL parse-back through the product JSON parser, the sorted-label sink,
// and the wiring into the serving event loop (dispatch annotations included).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/reqtrace.h"
#include "obs/sketch.h"
#include "report/json.h"
#include "serving/request_sim.h"

namespace vlacnn {
namespace {

using serving::AdaptiveBatchPolicy;
using serving::NoBatchPolicy;
using serving::PoissonArrivals;
using serving::RequestSimConfig;
using serving::ServingStats;
using serving::TraceArrivals;

// -- env knobs ----------------------------------------------------------------

TEST(ReqTraceKnobs, EnvParsesAndMalformedValuesThrow) {
  // ctest runs every test in its own process (gtest_discover_tests), so the
  // lazy one-shot env parse is fresh here; nothing else in this file touches
  // the TOPK/HEAD knobs before this test in a whole-binary run either.
  setenv("VLACNN_REQTRACE_TOPK", "bogus", 1);
  EXPECT_THROW(obs::reqtrace_top_k(), std::runtime_error);
  setenv("VLACNN_REQTRACE_TOPK", "0", 1);  // below the >= 1 floor
  EXPECT_THROW(obs::reqtrace_top_k(), std::runtime_error);
  setenv("VLACNN_REQTRACE_TOPK", "-1", 1);  // a sign, not a wrap to 2^64-1
  EXPECT_THROW(obs::reqtrace_top_k(), std::runtime_error);
  setenv("VLACNN_REQTRACE_TOPK", "99999999999999999999999", 1);  // > 2^64-1
  EXPECT_THROW(obs::reqtrace_top_k(), std::runtime_error);
  setenv("VLACNN_REQTRACE_TOPK", "12", 1);
  EXPECT_EQ(obs::reqtrace_top_k(), 12u);

  setenv("VLACNN_REQTRACE_HEAD", "7x", 1);
  EXPECT_THROW(obs::reqtrace_head_every(), std::runtime_error);
  setenv("VLACNN_REQTRACE_HEAD", "-1", 1);
  EXPECT_THROW(obs::reqtrace_head_every(), std::runtime_error);
  setenv("VLACNN_REQTRACE_HEAD", "16", 1);
  EXPECT_EQ(obs::reqtrace_head_every(), 16u);

  // The parsed values feed default_reqtrace_config; slo comes from the caller.
  const obs::ReqTraceConfig cfg = obs::default_reqtrace_config(777.0);
  EXPECT_EQ(cfg.top_k, 12u);
  EXPECT_EQ(cfg.head_every, 16u);
  EXPECT_EQ(cfg.slo_cycles, 777.0);

  unsetenv("VLACNN_REQTRACE_TOPK");
  unsetenv("VLACNN_REQTRACE_HEAD");
  obs::set_reqtrace_top_k(8);  // restore defaults for in-process runs
  obs::set_reqtrace_head_every(0);
}

TEST(ReqTraceKnobs, PathSetterGatesCollection) {
  const std::string before = obs::reqtrace_path();
  obs::set_reqtrace_path("/tmp/rt.jsonl");
  EXPECT_TRUE(obs::reqtrace_enabled());
  EXPECT_EQ(obs::reqtrace_path(), "/tmp/rt.jsonl");
  obs::set_reqtrace_path("");
  EXPECT_FALSE(obs::reqtrace_enabled());
  EXPECT_THROW(obs::set_reqtrace_top_k(0), std::invalid_argument);
  obs::set_reqtrace_path(before);
}

// -- keep reasons -------------------------------------------------------------

TEST(ReqTraceKeep, ReasonStringFixedOrder) {
  EXPECT_EQ(obs::keep_reasons_string(0), "");
  EXPECT_EQ(obs::keep_reasons_string(obs::kKeepSlowest), "slowest");
  EXPECT_EQ(obs::keep_reasons_string(obs::kKeepDrop | obs::kKeepHead),
            "drop,head");
  EXPECT_EQ(obs::keep_reasons_string(obs::kKeepHead | obs::kKeepViolation |
                                     obs::kKeepDrop | obs::kKeepSlowest),
            "slowest,drop,violation,head");
}

// -- head sampling ------------------------------------------------------------

TEST(ReqTraceHead, PureFunctionOfIdEveryAndSeed) {
  for (std::uint64_t id = 1; id <= 64; ++id) {
    EXPECT_FALSE(obs::head_sampled(id, 0, 99));  // 0 = off
    EXPECT_TRUE(obs::head_sampled(id, 1, 99));   // 1 = keep all
    EXPECT_EQ(obs::head_sampled(id, 4, 99), obs::head_sampled(id, 4, 99));
  }
  // Roughly 1-in-N: loose bounds, exact value pinned by determinism anyway.
  std::uint64_t hits = 0;
  for (std::uint64_t id = 1; id <= 10000; ++id) {
    hits += obs::head_sampled(id, 4, 0x7e1e5c0) ? 1 : 0;
  }
  EXPECT_GT(hits, 2000u);
  EXPECT_LT(hits, 3000u);
  // A different seed selects a different subset.
  std::uint64_t agree = 0;
  for (std::uint64_t id = 1; id <= 10000; ++id) {
    agree += obs::head_sampled(id, 4, 1) == obs::head_sampled(id, 4, 2) ? 1 : 0;
  }
  EXPECT_LT(agree, 10000u);
}

// -- tail sampler -------------------------------------------------------------

obs::RequestTrace completion(std::uint64_t id, double latency,
                             unsigned keep = 0) {
  obs::RequestTrace t;
  t.trace_id = id;
  t.arrival = 0;
  t.dispatch = 0;
  t.completion = latency;
  t.service = latency;
  t.keep = keep;
  return t;
}

std::vector<std::uint64_t> ids_of(const std::vector<obs::RequestTrace>& v) {
  std::vector<std::uint64_t> out;
  for (const auto& t : v) out.push_back(t.trace_id);
  return out;
}

TEST(TailSampler, KeepsKSlowestAndBreaksTiesTowardLowerId) {
  obs::TailSampler s(2);
  s.offer(completion(1, 10.0));
  s.offer(completion(2, 20.0));
  s.offer(completion(3, 20.0));  // ties id 2: the lower id wins retention
  s.offer(completion(4, 30.0));
  EXPECT_EQ(s.retained(), 2u);
  const auto kept = s.take();
  EXPECT_EQ(ids_of(kept), (std::vector<std::uint64_t>{2, 4}));
  for (const auto& t : kept) EXPECT_EQ(t.keep, obs::kKeepSlowest);
}

TEST(TailSampler, RetainsEveryDropAndEveryViolation) {
  obs::TailSampler s(1);
  // Five drops, three violations, two fast clean completions.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    obs::RequestTrace t = completion(id, 0.0, obs::kKeepDrop);
    t.dropped = true;
    s.offer(std::move(t));
  }
  for (std::uint64_t id = 6; id <= 8; ++id) {
    s.offer(completion(id, 100.0 + static_cast<double>(id),
                       obs::kKeepViolation));
  }
  s.offer(completion(9, 1.0));
  s.offer(completion(10, 2.0));
  const auto kept = s.take();
  // All 5 drops + all 3 violations; the k=1 slowest (id 8) is a violation, so
  // the clean completions 9/10 (evicted from the top-1) vanish.
  EXPECT_EQ(ids_of(kept), (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  for (const auto& t : kept) {
    if (t.dropped) {
      EXPECT_EQ(t.keep, obs::kKeepDrop);  // drops never enter the slowest set
    } else {
      EXPECT_TRUE(t.keep & obs::kKeepViolation);
    }
  }
  const auto& slowest = kept.back();
  EXPECT_EQ(slowest.keep, obs::kKeepViolation | obs::kKeepSlowest);
}

TEST(TailSampler, EvictedViolationSurvivesWithoutSlowestFlag) {
  obs::TailSampler s(1);
  s.offer(completion(1, 50.0, obs::kKeepViolation));  // in the top-1
  s.offer(completion(2, 60.0));                       // evicts id 1
  const auto kept = s.take();
  EXPECT_EQ(ids_of(kept), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(kept[0].keep, obs::kKeepViolation);
  EXPECT_EQ(kept[1].keep, obs::kKeepSlowest);
}

// -- per-layer span splitting -------------------------------------------------

double fold_right(const std::vector<obs::TraceSegment>& segs) {
  double acc = 0;
  for (std::size_t i = segs.size(); i-- > 0;) acc = segs[i].duration + acc;
  return acc;
}

TEST(SplitServiceSpan, SegmentsFoldBackToTotalBitExactly) {
  // Awkward magnitude mixes: naive weight * total products would round apart
  // from the span; the exact_split chain must not.
  const std::vector<std::pair<std::string, double>> layers = {
      {"conv1/direct", 0.3333333333333333},
      {"conv2/gemm3", 1e-7},
      {"conv3/gemm6", 123456.789},
      {"conv4/winograd", 0.9999999999999999},
  };
  for (double total : {1.0, 0.1, 3.0, 1e-9, 1e12, 12345.6789,
                       7.000000000000001}) {
    const auto segs = obs::split_service_span(total, layers);
    ASSERT_EQ(segs.size(), layers.size());
    EXPECT_EQ(fold_right(segs), total) << total;  // bit-exact, no tolerance
    for (std::size_t i = 0; i < segs.size(); ++i) {
      EXPECT_EQ(segs[i].name, layers[i].first);
      EXPECT_GE(segs[i].duration, 0.0);
    }
  }
  // Proportions are honoured (to rounding) when weights are comparable.
  const auto even = obs::split_service_span(
      1000.0, {{"a", 1.0}, {"b", 1.0}, {"c", 2.0}});
  EXPECT_NEAR(even[0].duration, 250.0, 1e-9);
  EXPECT_NEAR(even[1].duration, 250.0, 1e-9);
  EXPECT_NEAR(even[2].duration, 500.0, 1e-9);
}

TEST(SplitServiceSpan, EdgeWeightsAndEmptyLayers) {
  EXPECT_TRUE(obs::split_service_span(100.0, {}).empty());
  // Non-positive weights count as zero; the last segment absorbs everything
  // when every weight is zero.
  const auto zeros = obs::split_service_span(
      64.0, {{"a", 0.0}, {"b", -3.0}, {"c", 0.0}});
  ASSERT_EQ(zeros.size(), 3u);
  EXPECT_EQ(zeros[0].duration, 0.0);
  EXPECT_EQ(zeros[1].duration, 0.0);
  EXPECT_EQ(zeros[2].duration, 64.0);
  // A zero-length span (a drop) splits into zero-length segments.
  for (const auto& seg : obs::split_service_span(0.0, {{"a", 1.0}, {"b", 2.0}})) {
    EXPECT_EQ(seg.duration, 0.0);
  }
}

TEST(SplitServiceSpan, FirstCutPinsToServingExactSplit) {
  // The per-layer segments and the serving-side latency attribution both
  // cut with common/exact_split.h; this pin keeps the first segment the
  // exact_split of its weight share.
  const double total = 12345.6789;
  const double w0 = 0.3, w1 = 0.7;
  const auto segs =
      obs::split_service_span(total, {{"a", w0}, {"b", w1}});
  const auto [head, tail] =
      exact_split(total, total * (w0 / (w0 + w1)));
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].duration, head);
  EXPECT_EQ(segs[1].duration, tail);
}

// -- recorder through the serving event loop ----------------------------------

RequestSimConfig sim_config(int instances, double first, double marginal,
                            std::size_t queue_cap = 0, double slo = 0) {
  RequestSimConfig c;
  c.instances = instances;
  c.cost = {first, marginal};
  c.queue_capacity = queue_cap;
  c.slo_cycles = slo;
  return c;
}

TEST(ReqTraceRecorder, BurstCountsAndRetentionContract) {
  // Ten simultaneous arrivals, one instance, 4-deep waiting room, SLO 120:
  // ids 1-5 complete at 50/100/.../250 (violations 3-5), ids 6-10 drop.
  obs::ReqTraceConfig rtc;
  rtc.top_k = 2;
  rtc.slo_cycles = 120.0;
  obs::RequestTraceRecorder rec(rtc);
  RequestSimConfig c = sim_config(1, 50.0, 50.0, 4, 120.0);
  c.reqtrace = &rec;
  TraceArrivals arrivals(std::vector<double>(10, 0.0));
  NoBatchPolicy policy;
  const ServingStats s = simulate_requests(c, arrivals, policy);
  EXPECT_EQ(s.dropped, 5u);

  EXPECT_EQ(rec.offered(), 10u);
  EXPECT_EQ(rec.completed(), 5u);
  EXPECT_EQ(rec.dropped(), 5u);
  EXPECT_EQ(rec.violations(), 3u);
  // 100% of drops (6-10) and violations (3-5) retained; the top-2 slowest are
  // violations already, and the clean completions 1-2 are discarded.
  const auto& kept = rec.sampled();
  EXPECT_EQ(ids_of(kept), (std::vector<std::uint64_t>{3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(kept[0].keep, obs::kKeepViolation);  // id 3 fell out of the top-2
  EXPECT_EQ(kept[1].keep, obs::kKeepViolation | obs::kKeepSlowest);
  EXPECT_EQ(kept[2].keep, obs::kKeepViolation | obs::kKeepSlowest);
  EXPECT_EQ(kept[2].completion, 250.0);
  for (const auto& t : kept) {
    if (t.dropped) {
      EXPECT_EQ(t.keep, obs::kKeepDrop);
      EXPECT_EQ(t.latency(), 0.0);
      EXPECT_EQ(t.instance, -1);
      EXPECT_FALSE(t.within_slo);
    } else {
      EXPECT_EQ(t.batch, 1);
      EXPECT_EQ(t.instance, 0);
    }
  }
}

TEST(ReqTraceRecorder, EverySampledSpanSumsBitExactly) {
  // The acceptance contract: for EVERY sampled request the top-level spans
  // fold left-to-right to the latency and the layer segments fold
  // right-to-left to the service span — bit-exactly, under real Poisson
  // traffic with batching, drops, violations, and a head sample.
  obs::ReqTraceConfig rtc;
  rtc.top_k = 16;
  rtc.head_every = 3;
  rtc.slo_cycles = 1000.0;
  rtc.service_layers = {{"conv1/direct", 0.3333333333333333},
                        {"conv2/gemm3", 123456.789},
                        {"conv3/winograd", 1e-7}};
  obs::RequestTraceRecorder rec(rtc);
  RequestSimConfig c = sim_config(2, 300.0, 150.0, 3, 1000.0);
  c.reqtrace = &rec;
  PoissonArrivals arrivals(400.0, 2000, 7);
  AdaptiveBatchPolicy policy(8, 500.0);
  simulate_requests(c, arrivals, policy);

  EXPECT_EQ(rec.offered(), 2000u);
  EXPECT_GT(rec.dropped(), 0u);
  EXPECT_GT(rec.violations(), 0u);
  const auto& kept = rec.sampled();
  EXPECT_GT(kept.size(), rtc.top_k);  // drops/violations/head beyond the top-k
  std::uint64_t drops_seen = 0, violations_seen = 0, heads_seen = 0;
  for (const auto& t : kept) {
    // Left-to-right over the top-level spans.
    EXPECT_EQ((t.queue_wait + t.formation_wait) + t.service,
              t.completion - t.arrival)
        << "trace " << t.trace_id;
    EXPECT_EQ(t.latency(), t.completion - t.arrival);
    if (t.dropped) {
      ++drops_seen;
      EXPECT_TRUE(t.layers.empty());
      continue;
    }
    // Right-to-left over the per-layer segments.
    ASSERT_EQ(t.layers.size(), rtc.service_layers.size());
    EXPECT_EQ(fold_right(t.layers), t.service) << "trace " << t.trace_id;
    if (!t.within_slo) ++violations_seen;
    if (t.keep & obs::kKeepHead) ++heads_seen;
  }
  // Retention: every drop and every violation was sampled, plus a head sample.
  EXPECT_EQ(drops_seen, rec.dropped());
  EXPECT_EQ(violations_seen, rec.violations());
  EXPECT_GT(heads_seen, 0u);
  for (const auto& t : kept) {
    if (t.keep & obs::kKeepHead) {
      EXPECT_TRUE(obs::head_sampled(t.trace_id, rtc.head_every, rtc.head_seed));
    }
  }
}

TEST(ReqTraceRecorder, HeadEveryOneKeepsEveryRequest) {
  obs::ReqTraceConfig rtc;
  rtc.top_k = 1;
  rtc.head_every = 1;
  obs::RequestTraceRecorder rec(rtc);
  RequestSimConfig c = sim_config(1, 50.0, 50.0, 2);
  c.reqtrace = &rec;
  TraceArrivals arrivals(std::vector<double>(6, 0.0));
  NoBatchPolicy policy;
  simulate_requests(c, arrivals, policy);
  EXPECT_EQ(rec.sampled().size(), rec.offered());
}

TEST(ReqTraceRecorder, ServiceModelAnnotationsRideTheTrace) {
  // A ServiceModel's trace_annotations are captured at dispatch and attached
  // to every member of that batch; with no-batch serial service, trace id n
  // rides service call n.
  class NotingModel final : public serving::ServiceModel {
   public:
    double service_cycles(int batch) override {
      ++calls_;
      return 50.0 + 10.0 * batch;
    }
    void trace_annotations(std::vector<obs::TraceNote>& out) override {
      out.push_back({"dispatch", "noting"});
      out.push_back({"call", std::to_string(calls_)});
    }

   private:
    int calls_ = 0;
  } model;
  obs::ReqTraceConfig rtc;
  rtc.top_k = 8;
  obs::RequestTraceRecorder rec(rtc);
  RequestSimConfig c = sim_config(1, 0.0, 0.0);
  c.service = &model;
  c.reqtrace = &rec;
  TraceArrivals arrivals({0.0, 0.0, 0.0});
  NoBatchPolicy policy;
  simulate_requests(c, arrivals, policy);
  const auto& kept = rec.sampled();
  ASSERT_EQ(kept.size(), 3u);
  for (const auto& t : kept) {
    ASSERT_EQ(t.notes.size(), 2u);
    EXPECT_EQ(t.notes[0].key, "dispatch");
    EXPECT_EQ(t.notes[0].value, "noting");
    EXPECT_EQ(t.notes[1].key, "call");
    EXPECT_EQ(t.notes[1].value, std::to_string(t.trace_id));
  }
}

TEST(ReqTraceRecorder, LatencySketchCarriesTailExemplars) {
  obs::ReqTraceConfig rtc;
  rtc.top_k = 2;
  obs::RequestTraceRecorder rec(rtc);
  RequestSimConfig c = sim_config(1, 50.0, 50.0);
  c.reqtrace = &rec;
  TraceArrivals arrivals(std::vector<double>(20, 0.0));
  NoBatchPolicy policy;
  simulate_requests(c, arrivals, policy);
  EXPECT_EQ(rec.latency_sketch().count(), 20u);
  const auto tail = rec.latency_sketch().tail_exemplars(0.90);
  ASSERT_FALSE(tail.empty());
  // The last tail bucket's exemplar is the slowest request of the run: the
  // 20th back-to-back service, id 20, latency 1000.
  EXPECT_EQ(tail.back().second.id, 20u);
  EXPECT_EQ(tail.back().second.value, 1000.0);
}

// -- JSONL --------------------------------------------------------------------

TEST(ReqTraceJsonl, BlockParsesBackThroughProductParser) {
  obs::ReqTraceConfig rtc;
  rtc.top_k = 2;
  rtc.slo_cycles = 120.0;
  rtc.service_layers = {{"conv1/direct", 1.0}, {"conv2/gemm3", 2.0}};
  obs::RequestTraceRecorder rec(rtc);
  RequestSimConfig c = sim_config(1, 50.0, 50.0, 4, 120.0);
  c.reqtrace = &rec;
  TraceArrivals arrivals(std::vector<double>(10, 0.0));
  NoBatchPolicy policy;
  simulate_requests(c, arrivals, policy);

  std::istringstream in(rec.to_jsonl());
  std::string line;
  std::size_t headers = 0, exemplars = 0, requests = 0;
  while (std::getline(in, line)) {
    const report::Json j = report::parse_json(line);
    const std::string& type = j.at("type").string;
    if (type == "header") {
      ++headers;
      EXPECT_EQ(j.at("top_k").number, 2.0);
      EXPECT_EQ(j.at("slo_cycles").number, 120.0);
      EXPECT_EQ(j.at("offered").number, 10.0);
      EXPECT_EQ(j.at("completed").number, 5.0);
      EXPECT_EQ(j.at("dropped").number, 5.0);
      EXPECT_EQ(j.at("violations").number, 3.0);
      EXPECT_EQ(j.at("sampled").number, 8.0);
      EXPECT_EQ(j.at("layers").number, 2.0);
    } else if (type == "exemplar") {
      ++exemplars;
      EXPECT_GE(j.at("bucket_upper").number, j.at("latency").number);
      EXPECT_GT(j.at("id").number, 0.0);
    } else if (type == "request") {
      ++requests;
      // %.17g round-trips doubles exactly, so the parsed spans still satisfy
      // the bit-exact attribution identities.
      const double qw = j.at("queue_wait").number;
      const double fw = j.at("formation_wait").number;
      const double svc = j.at("service").number;
      EXPECT_EQ((qw + fw) + svc, j.at("latency").number);
      EXPECT_EQ(j.at("latency").number,
                j.at("completion").number - j.at("arrival").number);
      double layer_sum = 0;
      const auto& layers = j.at("layers").array;
      for (std::size_t i = layers.size(); i-- > 0;) {
        layer_sum = layers[i].at("cycles").number + layer_sum;
      }
      if (j.at("dropped").boolean) {
        EXPECT_TRUE(layers.empty());
      } else {
        EXPECT_EQ(layers.size(), 2u);
        EXPECT_EQ(layer_sum, svc);
        EXPECT_EQ(layers[0].at("name").string, "conv1/direct");
      }
      EXPECT_FALSE(j.at("keep").string.empty());
    } else {
      FAIL() << "unexpected line type " << type;
    }
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_GT(exemplars, 0u);
  EXPECT_EQ(requests, 8u);
}

TEST(ReqTraceJsonl, ByteStableAcrossRuns) {
  auto run = [] {
    obs::ReqTraceConfig rtc;
    rtc.top_k = 4;
    rtc.head_every = 5;
    rtc.slo_cycles = 2000.0;
    rtc.service_layers = {{"conv1/direct", 1.0}, {"conv2/gemm6", 3.0}};
    obs::RequestTraceRecorder rec(rtc);
    RequestSimConfig c = sim_config(2, 300.0, 150.0, 3, 2000.0);
    c.reqtrace = &rec;
    PoissonArrivals arrivals(400.0, 1000, 11);
    AdaptiveBatchPolicy policy(8, 500.0);
    simulate_requests(c, arrivals, policy);
    return rec.to_jsonl();
  };
  EXPECT_EQ(run(), run());
}

// -- sink ---------------------------------------------------------------------

TEST(ReqTraceSink, WritesBlocksInSortedLabelOrder) {
  obs::ReqTraceSink& sink = obs::ReqTraceSink::global();
  sink.reset();
  const std::string before_path = obs::reqtrace_path();
  const auto dir =
      std::filesystem::temp_directory_path() / "vlacnn_test_reqtrace";
  std::filesystem::remove_all(dir);
  const auto file = dir / "nested" / "rt.jsonl";
  obs::set_reqtrace_path(file.string());

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
  EXPECT_EQ(sink.next_auto_label(), "run000001");
  EXPECT_EQ(sink.next_auto_label(), "run000002");
  sink.reset();
  obs::set_reqtrace_path(before_path);
  std::filesystem::remove_all(dir);
}

TEST(ReqTraceSink, WriteWithoutPathThrows) {
  const std::string before = obs::reqtrace_path();
  obs::set_reqtrace_path("");
  obs::ReqTraceSink& sink = obs::ReqTraceSink::global();
  sink.reset();
  sink.record("x", "{}\n");
  EXPECT_THROW(sink.write_file(), std::runtime_error);
  sink.reset();
  obs::set_reqtrace_path(before);
}

}  // namespace
}  // namespace vlacnn
