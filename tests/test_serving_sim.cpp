// Tests for the request-level serving simulator: arrival processes, batching
// policies, the discrete-event loop (against M/D/1 queueing theory and
// hand-computed schedules), nearest-rank percentiles, and the capacity
// planner's thread-count determinism and one simulation per distinct
// configuration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/thread_pool.h"
#include "net/models.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "serving/request_sim.h"

namespace vlacnn::serving {
namespace {

// ------------------------------------------------- nearest-rank ------------

TEST(NearestRank, HandComputedTenSamples) {
  // Ten known samples: rank r = ceil(q * 10), 1-indexed, no interpolation.
  const std::vector<double> s{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(nearest_rank(s, 0.05), 10);   // ceil(0.5)  = rank 1
  EXPECT_EQ(nearest_rank(s, 0.10), 10);   // ceil(1.0)  = rank 1
  EXPECT_EQ(nearest_rank(s, 0.20), 20);   // ceil(2.0)  = rank 2
  EXPECT_EQ(nearest_rank(s, 0.25), 30);   // ceil(2.5)  = rank 3
  EXPECT_EQ(nearest_rank(s, 0.50), 50);   // ceil(5.0)  = rank 5
  EXPECT_EQ(nearest_rank(s, 0.51), 60);   // ceil(5.1)  = rank 6
  EXPECT_EQ(nearest_rank(s, 0.95), 100);  // ceil(9.5)  = rank 10
  EXPECT_EQ(nearest_rank(s, 0.999), 100);
  EXPECT_EQ(nearest_rank(s, 1.0), 100);
}

TEST(NearestRank, ResultIsAlwaysASample) {
  const std::vector<double> s{1.5, 2.5, 97.25};
  for (double q : {0.01, 0.333, 0.5, 0.666, 0.99, 1.0}) {
    const double v = nearest_rank(s, q);
    EXPECT_TRUE(v == 1.5 || v == 2.5 || v == 97.25) << q;
  }
}

TEST(NearestRank, RejectsBadInput) {
  EXPECT_THROW(nearest_rank({}, 0.5), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, 1.1), std::invalid_argument);
  EXPECT_THROW(nearest_rank({1.0}, -0.5), std::invalid_argument);
  EXPECT_THROW(nearest_rank_index(0, 0.5), std::invalid_argument);
  EXPECT_THROW(nearest_rank_index(10, 0.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank_index(10, 1.5), std::invalid_argument);
}

TEST(NearestRank, IndexMatchesHandComputedRanks) {
  // Same ranks as the ten-sample test above, as 0-based indices.
  EXPECT_EQ(nearest_rank_index(10, 0.05), 0u);
  EXPECT_EQ(nearest_rank_index(10, 0.10), 0u);
  EXPECT_EQ(nearest_rank_index(10, 0.25), 2u);
  EXPECT_EQ(nearest_rank_index(10, 0.50), 4u);
  EXPECT_EQ(nearest_rank_index(10, 0.51), 5u);
  EXPECT_EQ(nearest_rank_index(10, 1.0), 9u);
  EXPECT_EQ(nearest_rank_index(1, 1.0), 0u);
  EXPECT_EQ(nearest_rank_index(1, 0.001), 0u);
}

TEST(NearestRank, LargeSampleBoundariesAreExact) {
  // q * n that is an integer in exact arithmetic can land a hair above it in
  // floating point (0.95 * 1e8 rounds to 95000000.00000001...). The old
  // absolute 1e-9 snap-guard was smaller than that representation error, so
  // the rank came out one too high at large n. The relative guard must not.
  EXPECT_EQ(nearest_rank_index(100000000, 0.95), 94999999u);
  EXPECT_EQ(nearest_rank_index(100000000, 0.05), 4999999u);
  EXPECT_EQ(nearest_rank_index(1000000000, 0.999), 998999999u);
  EXPECT_EQ(nearest_rank_index(std::size_t{1} << 30, 0.5),
            (std::size_t{1} << 29) - 1);
  // ...and must not snap a genuinely-above-the-boundary q downwards.
  EXPECT_EQ(nearest_rank_index(10, 0.5000001), 5u);
  EXPECT_EQ(nearest_rank_index(100000000, 0.95000001), 95000000u);
  // p999 of the planner's typical 2000-request sample.
  EXPECT_EQ(nearest_rank_index(2000, 0.999), 1997u);
}

// ---------------------------------------------------- arrivals -------------

TEST(Arrivals, PoissonSeedDeterminism) {
  PoissonArrivals a(1000.0, 64, 7);
  PoissonArrivals b(1000.0, 64, 7);
  PoissonArrivals c(1000.0, 64, 8);
  bool any_diff = false;
  double prev = 0;
  for (int i = 0; i < 64; ++i) {
    const auto ta = a.next_arrival();
    const auto tb = b.next_arrival();
    const auto tc = c.next_arrival();
    ASSERT_TRUE(ta.has_value());
    EXPECT_EQ(*ta, *tb);  // same seed: bit-identical
    any_diff |= *ta != *tc;
    EXPECT_GE(*ta, prev);  // nondecreasing
    prev = *ta;
  }
  EXPECT_TRUE(any_diff);  // different seed: different workload
  EXPECT_TRUE(a.exhausted());
  EXPECT_FALSE(a.next_arrival().has_value());
}

TEST(Arrivals, PoissonMeanMatches) {
  const double mean = 2000.0;
  const std::uint64_t n = 100000;
  PoissonArrivals a(mean, n, 42);
  double last = 0;
  while (auto t = a.next_arrival()) last = *t;
  // Sum of n exponential(mean) gaps concentrates near n * mean.
  EXPECT_NEAR(last / static_cast<double>(n), mean, 0.02 * mean);
}

TEST(Arrivals, TraceRejectsUnsorted) {
  EXPECT_THROW(TraceArrivals({3.0, 1.0}), std::invalid_argument);
  TraceArrivals ok({0.0, 0.0, 5.0});  // duplicates are fine
  EXPECT_EQ(*ok.next_arrival(), 0.0);
}

TEST(Arrivals, ClosedLoopWaitsForCompletions) {
  ClosedLoopArrivals a(2, 100.0, 4);
  // Both clients issue at t=0, then the process stalls until a completion.
  EXPECT_EQ(*a.next_arrival(), 0.0);
  EXPECT_EQ(*a.next_arrival(), 0.0);
  EXPECT_FALSE(a.next_arrival().has_value());
  EXPECT_FALSE(a.exhausted());
  a.on_completion(500.0);  // think 100 -> next request at 600
  EXPECT_EQ(*a.next_arrival(), 600.0);
  a.on_completion(700.0);
  EXPECT_EQ(*a.next_arrival(), 800.0);
  EXPECT_TRUE(a.exhausted());  // 4 issued
  a.on_completion(900.0);      // ignored: total reached
  EXPECT_FALSE(a.next_arrival().has_value());
}

TEST(Arrivals, ClosedLoopHeapOrdersOutOfOrderAndTiedWakes) {
  // Completions reported out of order, including two at the same instant: the
  // wake heap must hand arrivals back in nondecreasing time, with the tied
  // pair adjacent — the event loop's determinism leans on this ordering.
  ClosedLoopArrivals a(3, 100.0, 9);
  EXPECT_EQ(*a.next_arrival(), 0.0);
  EXPECT_EQ(*a.next_arrival(), 0.0);
  EXPECT_EQ(*a.next_arrival(), 0.0);
  a.on_completion(500.0);  // wakes at 600
  a.on_completion(200.0);  // wakes at 300
  a.on_completion(200.0);  // wakes at 300 (identical)
  EXPECT_EQ(*a.next_arrival(), 300.0);
  EXPECT_EQ(*a.next_arrival(), 300.0);
  EXPECT_EQ(*a.next_arrival(), 600.0);
  a.on_completion(700.0);
  a.on_completion(700.0);
  a.on_completion(650.0);
  EXPECT_EQ(*a.next_arrival(), 750.0);
  EXPECT_EQ(*a.next_arrival(), 800.0);
  EXPECT_EQ(*a.next_arrival(), 800.0);
  EXPECT_TRUE(a.exhausted());  // 9 issued
  EXPECT_FALSE(a.next_arrival().has_value());
}

// ---------------------------------------------------- policies -------------

TEST(Batching, PolicyNamesAndBounds) {
  EXPECT_EQ(NoBatchPolicy().name(), "nobatch");
  EXPECT_EQ(MaxBatchPolicy(8).name(), "maxbatch8");
  EXPECT_EQ(AdaptiveBatchPolicy(4, 2e6).name(), "adaptive4@2e+06");
  EXPECT_THROW(MaxBatchPolicy(0), std::invalid_argument);
  EXPECT_THROW(AdaptiveBatchPolicy(1, -1.0), std::invalid_argument);
}

TEST(Batching, AdaptiveDispatchLogic) {
  AdaptiveBatchPolicy p(4, 100.0);
  EXPECT_EQ(p.dispatch_size(4, 0.0, 0.0), 4);   // full batch: go now
  EXPECT_EQ(p.dispatch_size(9, 0.0, 0.0), 4);   // capped at max
  EXPECT_EQ(p.dispatch_size(2, 0.0, 50.0), 0);  // young queue: wait
  EXPECT_EQ(p.flush_deadline(2, 0.0), 100.0);
  EXPECT_EQ(p.dispatch_size(2, 0.0, 100.0), 2);  // timeout: flush partial
}

// ---------------------------------------------------- event loop -----------

RequestSimConfig config(int instances, double first, double marginal,
                        std::size_t queue_cap = 0, double slo = 0) {
  RequestSimConfig c;
  c.instances = instances;
  c.cost = {first, marginal};
  c.queue_capacity = queue_cap;
  c.slo_cycles = slo;
  return c;
}

TEST(RequestSim, MD1MeanWaitMatchesTheory) {
  // M/D/1 at rho = 0.5: deterministic service D = 1000, Poisson arrivals with
  // mean gap 2000. Pollaczek-Khinchine: Wq = rho * D / (2 (1 - rho)) = 500.
  const double D = 1000.0, gap = 2000.0;
  const std::uint64_t n = 200000;
  PoissonArrivals arrivals(gap, n, 42);
  NoBatchPolicy policy;
  const ServingStats s = simulate_requests(config(1, D, D), arrivals, policy);
  EXPECT_EQ(s.offered, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_NEAR(s.mean_wait, 500.0, 0.05 * 500.0);          // within 5%
  EXPECT_NEAR(s.mean_latency, 1500.0, 0.05 * 1500.0);     // Wq + D
  EXPECT_NEAR(s.utilization, 0.5, 0.01);
  // Little's law on the waiting room: Lq = lambda * Wq.
  EXPECT_NEAR(s.mean_queue, s.mean_wait / gap, 0.05 * s.mean_queue + 1e-9);
}

TEST(RequestSim, AdaptiveFlushHandSchedule) {
  // Arrivals 0/10/20, adaptive(max 8, timeout 100), one instance with
  // service 50 + 10 per extra image: nothing dispatches until the oldest
  // request has waited 100 cycles, then all three go as one batch at t=100,
  // completing at 100 + 50 + 2*10 = 170. Exact, no tolerance.
  TraceArrivals arrivals({0.0, 10.0, 20.0});
  AdaptiveBatchPolicy policy(8, 100.0);
  const ServingStats s =
      simulate_requests(config(1, 50.0, 10.0), arrivals, policy);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.mean_batch, 3.0);
  EXPECT_EQ(s.makespan, 170.0);
  EXPECT_EQ(s.max_latency, 170.0);  // the t=0 arrival
  EXPECT_EQ(s.p50, 160.0);          // latencies {150, 160, 170}
  EXPECT_EQ(s.mean_wait, (100.0 + 90.0 + 80.0) / 3.0);
  EXPECT_EQ(s.max_queue, 3.0);
  EXPECT_EQ(s.utilization, 70.0 / 170.0);
}

TEST(RequestSim, AdaptiveTimeoutZeroIsWorkConserving) {
  // timeout 0 degenerates to greedy batching: the first arrival dispatches
  // alone, the two queued behind it flush together on completion.
  TraceArrivals arrivals({0.0, 0.0, 0.0});
  AdaptiveBatchPolicy policy(8, 0.0);
  const ServingStats s =
      simulate_requests(config(1, 50.0, 10.0), arrivals, policy);
  EXPECT_EQ(s.batches, 2u);          // {1} at t=0, {2} at t=50
  EXPECT_EQ(s.makespan, 110.0);      // 50 + (50 + 10)
  EXPECT_EQ(s.p50, 110.0);           // latencies {50, 110, 110}
  EXPECT_EQ(s.max_latency, 110.0);
}

TEST(RequestSim, BurstLargerThanQueueBoundDrops) {
  // Ten simultaneous arrivals into one instance with a 4-deep waiting room:
  // the first dispatches immediately, four wait, five are rejected.
  TraceArrivals arrivals(std::vector<double>(10, 0.0));
  NoBatchPolicy policy;
  const ServingStats s =
      simulate_requests(config(1, 50.0, 50.0, 4), arrivals, policy);
  EXPECT_EQ(s.offered, 10u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.dropped, 5u);
  EXPECT_EQ(s.max_queue, 4.0);
  EXPECT_EQ(s.makespan, 250.0);  // five back-to-back services
}

TEST(RequestSim, ClosedLoopSaturatesOneInstance) {
  // One client, zero think time: requests chain back to back, so the
  // instance never idles and every latency equals the service time.
  ClosedLoopArrivals arrivals(1, 0.0, 5);
  NoBatchPolicy policy;
  const ServingStats s =
      simulate_requests(config(1, 50.0, 50.0), arrivals, policy);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.makespan, 250.0);
  EXPECT_EQ(s.utilization, 1.0);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.max_latency, 50.0);
  EXPECT_EQ(s.mean_wait, 0.0);
}

TEST(RequestSim, SloAttainmentCountsDropsAgainstOffered) {
  // Same burst as above with a 120-cycle SLO: of 10 offered, completions at
  // 50 and 100 are inside, the other three completions and all five drops
  // miss -> attainment 2/10.
  TraceArrivals arrivals(std::vector<double>(10, 0.0));
  NoBatchPolicy policy;
  const ServingStats s =
      simulate_requests(config(1, 50.0, 50.0, 4, 120.0), arrivals, policy);
  EXPECT_EQ(s.slo, 120.0);
  EXPECT_EQ(s.slo_attainment, 0.2);
}

TEST(RequestSim, RejectsBadConfig) {
  TraceArrivals arrivals({0.0});
  NoBatchPolicy policy;
  EXPECT_THROW(simulate_requests(config(0, 50.0, 50.0), arrivals, policy),
               std::invalid_argument);
  TraceArrivals arrivals2({0.0});
  EXPECT_THROW(simulate_requests(config(1, 0.0, 0.0), arrivals2, policy),
               std::invalid_argument);
}

TEST(RequestSim, StatsJsonIsByteStableAcrossRuns) {
  auto run = [] {
    PoissonArrivals arrivals(500.0, 5000, 11);
    MaxBatchPolicy policy(4);
    return simulate_requests(config(2, 300.0, 150.0), arrivals, policy)
        .to_json();
  };
  const std::string a = run(), b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"p999\""), std::string::npos);
}

TEST(RequestSim, ServiceModelOverrideMatchesFixedCost) {
  // A FixedServiceModel wrapping the same coefficients must reproduce the
  // plain cost-model run byte for byte; with cfg.service set, the fixed-cost
  // fields are ignored (the model owns validation).
  TraceArrivals a1({0.0, 10.0, 20.0});
  AdaptiveBatchPolicy p1(8, 100.0);
  const ServingStats direct =
      simulate_requests(config(1, 50.0, 10.0), a1, p1);

  FixedServiceModel model(BatchCostModel{50.0, 10.0});
  RequestSimConfig c = config(1, 0.0, 0.0);  // would throw without a service
  c.service = &model;
  TraceArrivals a2({0.0, 10.0, 20.0});
  AdaptiveBatchPolicy p2(8, 100.0);
  EXPECT_EQ(simulate_requests(c, a2, p2).to_json(), direct.to_json());
}

TEST(RequestSim, RejectsNonPositiveServiceModelOutput) {
  // The loop refuses to advance on a model that emits a non-positive or
  // non-finite service time — it would stall or corrupt simulated time.
  class BrokenModel final : public ServiceModel {
   public:
    double service_cycles(int) override { return 0.0; }
  } broken;
  RequestSimConfig c = config(1, 50.0, 10.0);
  c.service = &broken;
  TraceArrivals arrivals({0.0});
  NoBatchPolicy policy;
  EXPECT_THROW(simulate_requests(c, arrivals, policy), std::logic_error);
}

// ---------------------------------------------------- attribution ----------

TEST(RequestSim, AttributionSumsExactlyToLatencyForEveryRequest) {
  // The acceptance invariant: per completed request, the three components
  // reconstruct the latency *exactly* in floating point, over a stochastic
  // workload big enough to hit queueing, batching holds, and idle gaps.
  std::vector<RequestRecord> log;
  RequestSimConfig c = config(2, 300.0, 150.0, 16, 2000.0);
  c.request_log = &log;
  PoissonArrivals arrivals(500.0, 20000, 11);
  AdaptiveBatchPolicy policy(4, 400.0);
  const ServingStats s = simulate_requests(c, arrivals, policy);
  ASSERT_EQ(log.size(), s.completed);
  double qw = 0, fw = 0, sv = 0;
  for (const RequestRecord& r : log) {
    const double lat = r.completion - r.arrival;
    EXPECT_EQ((r.queue_wait + r.formation_wait) + r.service, lat);
    EXPECT_GE(r.queue_wait, 0.0);
    EXPECT_GE(r.formation_wait, 0.0);
    EXPECT_GT(r.service, 0.0);
    EXPECT_LE(r.arrival, r.dispatch);
    EXPECT_LT(r.dispatch, r.completion);
    EXPECT_EQ(r.within_slo, lat <= c.slo_cycles);
    qw += r.queue_wait;
    fw += r.formation_wait;
    sv += r.service;
  }
  const double n = static_cast<double>(s.completed);
  EXPECT_DOUBLE_EQ(s.mean_queue_wait, qw / n);
  EXPECT_DOUBLE_EQ(s.mean_formation_wait, fw / n);
  EXPECT_DOUBLE_EQ(s.mean_service, sv / n);
  // The means decompose the aggregate means too (up to accumulation order).
  EXPECT_NEAR(s.mean_queue_wait + s.mean_formation_wait, s.mean_wait,
              1e-9 * s.mean_wait + 1e-12);
  EXPECT_NEAR(s.mean_queue_wait + s.mean_formation_wait + s.mean_service,
              s.mean_latency, 1e-9 * s.mean_latency + 1e-12);
}

TEST(RequestSim, AttributionHandComputedAdaptiveHold) {
  // The AdaptiveFlushHandSchedule scenario: the instance sits idle while the
  // policy holds the queue until t=100, so the entire pre-dispatch wait is
  // formation wait, none of it capacity queueing.
  std::vector<RequestRecord> log;
  RequestSimConfig c = config(1, 50.0, 10.0);
  c.request_log = &log;
  TraceArrivals arrivals({0.0, 10.0, 20.0});
  AdaptiveBatchPolicy policy(8, 100.0);
  const ServingStats s = simulate_requests(c, arrivals, policy);
  ASSERT_EQ(log.size(), 3u);
  const double waits[] = {100.0, 90.0, 80.0};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(log[i].arrival, 10.0 * i);
    EXPECT_EQ(log[i].dispatch, 100.0);
    EXPECT_EQ(log[i].completion, 170.0);
    EXPECT_EQ(log[i].queue_wait, 0.0) << i;
    EXPECT_EQ(log[i].formation_wait, waits[i]) << i;
    EXPECT_EQ(log[i].service, 70.0) << i;
  }
  EXPECT_EQ(s.mean_formation_wait, s.mean_wait);
  EXPECT_EQ(s.mean_queue_wait, 0.0);
  EXPECT_EQ(s.mean_service, 70.0);
}

TEST(RequestSim, AttributionHandComputedBusyQueue) {
  // Ten simultaneous arrivals, nobatch, one instance, service 50: the
  // instance never idles after t=0, so every wait is pure capacity queueing.
  std::vector<RequestRecord> log;
  RequestSimConfig c = config(1, 50.0, 50.0);
  c.request_log = &log;
  TraceArrivals arrivals(std::vector<double>(10, 0.0));
  NoBatchPolicy policy;
  const ServingStats s = simulate_requests(c, arrivals, policy);
  ASSERT_EQ(log.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log[i].queue_wait, 50.0 * i) << i;
    EXPECT_EQ(log[i].formation_wait, 0.0) << i;
    EXPECT_EQ(log[i].service, 50.0) << i;
  }
  EXPECT_EQ(s.mean_queue_wait, s.mean_wait);
  EXPECT_EQ(s.mean_formation_wait, 0.0);

  // Awkward magnitudes: request 2 waits only while the instance is busy, so
  // its wait is all queueing. Splitting the wait span itself leaves no
  // rounding residue; splitting around (dispatch - arrival) - formation_wait
  // would report ~1e-6 cycles of formation wait here.
  std::vector<RequestRecord> log2;
  RequestSimConfig c2 = config(1, 11338766440.261736, 11338766440.261736);
  c2.request_log = &log2;
  TraceArrivals arrivals2({0.0, 5116220409.0583754});
  const ServingStats s2 = simulate_requests(c2, arrivals2, policy);
  ASSERT_EQ(log2.size(), 2u);
  EXPECT_EQ(log2[1].formation_wait, 0.0);
  EXPECT_EQ(log2[1].queue_wait, 6222546031.2033615);
  EXPECT_EQ(s2.mean_formation_wait, 0.0);
}

TEST(RequestSim, NoObsVariantMatchesInstrumentedLoopByteForByte) {
  // simulate_requests_no_obs is the benchmark baseline: same stats, same
  // request log, with every obs hook compiled out.
  auto run = [](bool no_obs) {
    std::vector<RequestRecord> log;
    RequestSimConfig c = config(2, 300.0, 150.0, 16, 2000.0);
    c.request_log = &log;
    PoissonArrivals arrivals(500.0, 5000, 7);
    AdaptiveBatchPolicy policy(4, 400.0);
    const ServingStats s = no_obs ? simulate_requests_no_obs(c, arrivals, policy)
                                  : simulate_requests(c, arrivals, policy);
    return std::make_pair(s.to_json(), log);
  };
  const auto [json_obs, log_obs] = run(false);
  const auto [json_no, log_no] = run(true);
  EXPECT_EQ(json_obs, json_no);
  EXPECT_NE(json_obs.find("\"mean_queue_wait\""), std::string::npos);
  EXPECT_NE(json_obs.find("\"mean_formation_wait\""), std::string::npos);
  EXPECT_NE(json_obs.find("\"mean_service\""), std::string::npos);
  ASSERT_EQ(log_obs.size(), log_no.size());
  for (std::size_t i = 0; i < log_obs.size(); ++i) {
    EXPECT_EQ(log_obs[i].arrival, log_no[i].arrival);
    EXPECT_EQ(log_obs[i].dispatch, log_no[i].dispatch);
    EXPECT_EQ(log_obs[i].completion, log_no[i].completion);
    EXPECT_EQ(log_obs[i].queue_wait, log_no[i].queue_wait);
    EXPECT_EQ(log_obs[i].formation_wait, log_no[i].formation_wait);
    EXPECT_EQ(log_obs[i].service, log_no[i].service);
    EXPECT_EQ(log_obs[i].within_slo, log_no[i].within_slo);
  }
}

TEST(RequestSim, CallerOwnedTimelineRecorderSeesTheWholeRun) {
  // The event loop drives a caller-supplied recorder and finishes it at the
  // makespan; nothing reaches the global sink in that mode.
  obs::TimelineSink::global().reset();
  obs::TimelineConfig tc;
  tc.interval_cycles = 100.0;
  obs::TimelineRecorder rec(tc);
  RequestSimConfig c = config(1, 50.0, 50.0);
  c.timeline = &rec;
  TraceArrivals arrivals(std::vector<double>(10, 0.0));
  NoBatchPolicy policy;
  const ServingStats s = simulate_requests(c, arrivals, policy);
  ASSERT_FALSE(rec.snapshots().empty());
  const auto& last = rec.snapshots().back();
  EXPECT_EQ(last.t_end, s.makespan);
  EXPECT_EQ(last.cum_completed, s.completed);
  EXPECT_EQ(last.cum_offered, s.offered);
  EXPECT_EQ(obs::TimelineSink::global().block_count(), 0u);
}

// ------------------------------------------------ capacity planner ---------

class CapacityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vlacnn_capacity_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Network tiny_net() {
    Network net("tiny", {3, 32, 32});
    net.conv(8, 3, 1, 1);
    net.conv(16, 3, 2, 1);
    net.conv(8, 1, 1, 0);
    return net;
  }

  std::filesystem::path dir_;
};

TEST_F(CapacityTest, CostModelInvariants) {
  ResultsDb db((dir_ / "cache.csv").string());
  SweepDriver driver(&db);
  const Network net = tiny_net();
  EXPECT_GT(conv_weight_bytes(net), 0.0);
  const BatchCostModel m =
      batch_cost_model(driver, net, 512, 1u << 20, std::nullopt);
  EXPECT_GT(m.first_image_cycles, 0.0);
  EXPECT_GT(m.marginal_image_cycles, 0.0);
  EXPECT_LE(m.marginal_image_cycles, m.first_image_cycles);
  // The amortizable share is clamped to half the per-image cost.
  EXPECT_GE(m.marginal_image_cycles, 0.5 * m.first_image_cycles - 1e-9);
  EXPECT_EQ(m.service_cycles(1), m.first_image_cycles);
  EXPECT_EQ(m.service_cycles(3),
            m.first_image_cycles + 2.0 * m.marginal_image_cycles);
}

TEST(BatchCost, AmortizesWeightsUpToHalfTheImage) {
  const BatchCostModel light = BatchCostModel::amortizing(100.0, 30.0);
  EXPECT_EQ(light.first_image_cycles, 100.0);
  EXPECT_EQ(light.marginal_image_cycles, 70.0);
  // Weight traffic past half the image is clamped: a batch never gets cheaper
  // than half an image per extra member.
  const BatchCostModel heavy = BatchCostModel::amortizing(100.0, 80.0);
  EXPECT_EQ(heavy.marginal_image_cycles, 50.0);
  EXPECT_EQ(heavy.service_cycles(3), 200.0);
}

TEST_F(CapacityTest, GridIsByteIdenticalAcrossPoolSizes) {
  // The determinism guarantee, in process: the same query over the same grid
  // yields byte-identical per-point stats on a 1-thread and an 8-thread pool.
  const Network net = tiny_net();
  CapacityQuery q;
  q.load_rps = 100000;  // tiny net is fast; drive it hard enough to queue
  q.slo_ms = 5;
  q.requests = 500;
  q.seed = 42;

  ResultsDb db1((dir_ / "p1.csv").string());
  SweepDriver d1(&db1);
  ThreadPool pool1(1);
  const auto r1 =
      CapacityPlanner(&d1).evaluate_grid(net, q, std::nullopt, &pool1);

  ResultsDb db8((dir_ / "p8.csv").string());
  SweepDriver d8(&db8);
  ThreadPool pool8(8);
  const auto r8 =
      CapacityPlanner(&d8).evaluate_grid(net, q, std::nullopt, &pool8);

  ASSERT_EQ(r1.size(), r8.size());
  ASSERT_FALSE(r1.empty());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].stats.to_json(), r8[i].stats.to_json()) << i;
    EXPECT_EQ(r1[i].eval.cycles_per_image, r8[i].eval.cycles_per_image) << i;
    EXPECT_EQ(r1[i].eval.area_mm2, r8[i].eval.area_mm2) << i;
    EXPECT_EQ(r1[i].meets_slo, r8[i].meets_slo) << i;
  }
}

TEST_F(CapacityTest, TimelineJsonlIsByteIdenticalAcrossPoolSizes) {
  // The tentpole determinism guarantee end to end: a timeline-enabled grid
  // evaluation writes byte-identical JSONL whether the planner ran on one
  // thread or eight. Blocks are keyed by grid-point label and written in
  // sorted order, so scheduling cannot reorder the file.
  const Network net = tiny_net();
  CapacityQuery q;
  q.load_rps = 100000;
  q.slo_ms = 5;
  q.requests = 300;
  q.seed = 42;

  const std::string before_path = obs::timeline_path();
  auto run_with_pool = [&](int threads, const char* tag) {
    const auto file = dir_ / (std::string("tl_") + tag + ".jsonl");
    obs::set_timeline_path(file.string());
    obs::TimelineSink::global().reset();
    ResultsDb db((dir_ / (std::string("tl_") + tag + ".csv")).string());
    SweepDriver driver(&db);
    ThreadPool pool(threads);
    CapacityPlanner(&driver).evaluate_grid(net, q, std::nullopt, &pool);
    EXPECT_GT(obs::TimelineSink::global().block_count(), 0u);
    obs::TimelineSink::global().write_file();
    obs::TimelineSink::global().reset();
    std::ifstream in(file);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string serial = run_with_pool(1, "p1");
  const std::string parallel = run_with_pool(8, "p8");
  obs::set_timeline_path(before_path);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Labels carry the grid point, so blocks are self-describing.
  EXPECT_NE(serial.find("\"type\":\"run\""), std::string::npos);
  EXPECT_NE(serial.find("cores"), std::string::npos);
  EXPECT_NE(serial.find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(serial.find("\"type\":\"snapshot\""), std::string::npos);
}

TEST_F(CapacityTest, GridSimulatesEachDistinctConfigurationOnce) {
  // A point's simulation reads only its cost model (a function of vlen and
  // L2 slice), its instance count and the query, so the grid runs one per
  // distinct (vlen, slice, instances): 56 for its 160 points. Every candidate
  // must still equal its point evaluated on its own.
  const Network net = tiny_net();
  CapacityQuery q;
  q.load_rps = 100000;
  q.slo_ms = 5;
  q.requests = 200;  // the queue is unbounded, so nothing drops
  ResultsDb db((dir_ / "dedupe.csv").string());
  SweepDriver driver(&db);
  const CapacityPlanner planner(&driver);
  const std::vector<ServingPoint> points = ServingSimulator::grid_points();
  ASSERT_EQ(points.size(), 160u);
  obs::Counter& completed =
      obs::Registry::global().counter("serving.requests_completed");
  ThreadPool pool(4);
  for (const std::optional<Algo> fixed :
       {std::optional<Algo>(), std::optional<Algo>(Algo::kWinograd)}) {
    obs::set_metrics_mode(obs::ReportMode::kText);
    const std::uint64_t before = completed.value();
    const auto grid = planner.evaluate_grid(net, q, fixed, &pool);
    obs::set_metrics_mode(obs::ReportMode::kOff);
    EXPECT_EQ(completed.value() - before, 56 * q.requests);
    ASSERT_EQ(grid.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const CapacityCandidate one = planner.evaluate(net, points[i], q, fixed);
      EXPECT_EQ(grid[i].stats.dropped, 0u) << i;
      EXPECT_EQ(grid[i].stats.to_json(), one.stats.to_json()) << i;
      EXPECT_EQ(grid[i].eval.cycles_per_image, one.eval.cycles_per_image)
          << i;
      EXPECT_EQ(grid[i].eval.images_per_cycle, one.eval.images_per_cycle)
          << i;
      EXPECT_EQ(grid[i].eval.area_mm2, one.eval.area_mm2) << i;
      EXPECT_EQ(grid[i].meets_slo, one.meets_slo) << i;
    }
  }
}

TEST_F(CapacityTest, CheapestPicksMinimalAreaAmongFeasible) {
  std::vector<CapacityCandidate> cands(3);
  cands[0].eval.area_mm2 = 5.0;
  cands[0].meets_slo = false;
  cands[1].eval.area_mm2 = 9.0;
  cands[1].meets_slo = true;
  cands[2].eval.area_mm2 = 7.0;
  cands[2].meets_slo = true;
  const auto best = CapacityPlanner::cheapest(cands);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->eval.area_mm2, 7.0);
  EXPECT_FALSE(CapacityPlanner::cheapest({}).has_value());
}

TEST_F(CapacityTest, RejectsNonPositiveQuery) {
  ResultsDb db((dir_ / "cache.csv").string());
  SweepDriver driver(&db);
  CapacityPlanner planner(&driver);
  CapacityQuery q;
  q.load_rps = 0;
  EXPECT_THROW(planner.evaluate(tiny_net(), ServingPoint{1, 512, 1u << 20, 1},
                                q, std::nullopt),
               std::invalid_argument);
}

}  // namespace
}  // namespace vlacnn::serving
