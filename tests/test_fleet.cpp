// Tests for the multi-chip fleet simulator (DESIGN.md §15): traffic mix,
// routing policies, the fleet event loop (hand-computed hop schedules, exact
// four-span attribution, single-chip equivalence, per-queue service models,
// caller-owned recorders), placement, drops, and the fleet capacity
// planner's thread-count determinism and shared per-type cost models.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "area/area_model.h"
#include "common/thread_pool.h"
#include "net/network.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "serving/fleet.h"
#include "serving/fleet_planner.h"
#include "serving/request_sim.h"

namespace vlacnn::serving {
namespace {

// ---------------------------------------------------- traffic mix ----------

FleetTrafficMix two_model_mix(std::uint64_t seed = 1) {
  FleetTrafficMix mix;
  mix.names = {"vgg16", "yolo20"};
  mix.shares = {0.7, 0.3};
  mix.seed = seed;
  return mix;
}

TEST(FleetMix, PickIsDeterministicAndSeedSensitive) {
  const FleetTrafficMix a = two_model_mix(1);
  const FleetTrafficMix b = two_model_mix(1);
  const FleetTrafficMix c = two_model_mix(99);
  bool any_diff = false;
  for (std::uint64_t seq = 1; seq <= 256; ++seq) {
    EXPECT_EQ(a.pick(seq), b.pick(seq)) << seq;  // same seed: identical
    any_diff |= a.pick(seq) != c.pick(seq);
  }
  EXPECT_TRUE(any_diff);  // different seed: different stream
  // pick(seq) is a pure function of (seed, seq): re-asking cannot drift.
  EXPECT_EQ(a.pick(7), a.pick(7));
}

TEST(FleetMix, FrequenciesMatchShares) {
  const FleetTrafficMix mix = two_model_mix(42);
  int counts[2] = {0, 0};
  const int n = 20000;
  for (std::uint64_t seq = 1; seq <= n; ++seq) ++counts[mix.pick(seq)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.02);
}

TEST(FleetMix, RejectsBadInput) {
  FleetTrafficMix mix;
  EXPECT_THROW(mix.pick(1), std::invalid_argument);  // empty
  mix.names = {"a", "b"};
  mix.shares = {1.0};
  EXPECT_THROW(mix.pick(1), std::invalid_argument);  // size mismatch
  mix.shares = {1.0, 0.0};
  EXPECT_THROW(mix.pick(1), std::invalid_argument);  // non-positive share
  mix.shares = {1.0, -2.0};
  EXPECT_THROW(mix.pick(1), std::invalid_argument);
}

TEST(FleetMix, ToStringNormalizesShares) {
  FleetTrafficMix mix;
  mix.names = {"vgg16", "yolo20"};
  mix.shares = {7.0, 3.0};  // un-normalized weights
  EXPECT_EQ(mix.to_string(), "vgg16=0.70,yolo20=0.30");
}

// ------------------------------------------------------- routers -----------

TEST(FleetRouterTest, RoundRobinRotatesPerModel) {
  RoundRobinRouter r(2);
  const std::vector<int> hosts{0, 1, 2};
  const std::vector<std::uint64_t> load{9, 0, 0};  // ignored by rr
  EXPECT_EQ(r.route(0, hosts, load), 0);
  EXPECT_EQ(r.route(0, hosts, load), 1);
  EXPECT_EQ(r.route(0, hosts, load), 2);
  EXPECT_EQ(r.route(0, hosts, load), 0);
  // Model 1 keeps its own rotation counter.
  EXPECT_EQ(r.route(1, hosts, load), 0);
  EXPECT_EQ(r.route(0, hosts, load), 1);
}

TEST(FleetRouterTest, JsqPicksFewestOutstandingTiesLowestChip) {
  JoinShortestQueueRouter r;
  EXPECT_EQ(r.route(0, {0, 1, 2}, {3, 1, 1}), 1);  // tie at 1: lowest chip
  EXPECT_EQ(r.route(0, {0, 1, 2}, {0, 2, 1}), 0);
  EXPECT_EQ(r.route(0, {1, 2}, {99, 5, 4}), 2);  // only hosts compete
}

TEST(FleetRouterTest, PowerOfTwoSeedDeterminism) {
  PowerOfTwoRouter a(7), b(7), c(8);
  const std::vector<int> hosts{0, 1, 2, 3};
  const std::vector<std::uint64_t> load{4, 3, 2, 1};
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const int ra = a.route(0, hosts, load);
    EXPECT_EQ(ra, b.route(0, hosts, load));  // same seed: identical draws
    any_diff |= ra != c.route(0, hosts, load);
  }
  EXPECT_TRUE(any_diff);  // different seed: different draw sequence
}

TEST(FleetRouterTest, PowerOfTwoSingleHostDegenerates) {
  PowerOfTwoRouter r(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.route(0, {3}, {0, 0, 0, 17}), 3);
  }
}

TEST(FleetRouterTest, PowerOfTwoTieIsNotStructurallyBiased) {
  // Exact outstanding tie: the seeded coin must let both chips of the drawn
  // pair win sometimes — a lowest-index tie-break would pin every decision.
  PowerOfTwoRouter r(5);
  const std::vector<int> hosts{0, 1};
  const std::vector<std::uint64_t> load{4, 4};
  std::set<int> seen;
  for (int i = 0; i < 128; ++i) seen.insert(r.route(0, hosts, load));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(FleetRouterTest, KindFromStringAndFactory) {
  EXPECT_EQ(router_kind_from_string("rr"), RouterSpec::Kind::kRoundRobin);
  EXPECT_EQ(router_kind_from_string("jsq"),
            RouterSpec::Kind::kJoinShortestQueue);
  EXPECT_EQ(router_kind_from_string("p2c"), RouterSpec::Kind::kPowerOfTwo);
  EXPECT_THROW(router_kind_from_string("random"), std::invalid_argument);
  EXPECT_EQ(make_router({RouterSpec::Kind::kRoundRobin, 1}, 2)->name(), "rr");
  EXPECT_EQ(make_router({RouterSpec::Kind::kJoinShortestQueue, 1}, 2)->name(),
            "jsq");
  EXPECT_EQ(make_router({RouterSpec::Kind::kPowerOfTwo, 1}, 2)->name(), "p2c");
}

TEST(FleetRouterTest, DefaultFleetSeedEnvKnob) {
  ::unsetenv("VLACNN_FLEET_SEED");
  EXPECT_EQ(default_fleet_seed(), 1u);
  ::setenv("VLACNN_FLEET_SEED", "12345", 1);
  EXPECT_EQ(default_fleet_seed(), 12345u);
  ::setenv("VLACNN_FLEET_SEED", "not-a-seed", 1);
  EXPECT_THROW(default_fleet_seed(), std::runtime_error);
  // Neither a sign nor an overflow may wrap to seed 2^64-1.
  ::setenv("VLACNN_FLEET_SEED", "-1", 1);
  EXPECT_THROW(default_fleet_seed(), std::runtime_error);
  ::setenv("VLACNN_FLEET_SEED", "99999999999999999999999", 1);
  EXPECT_THROW(default_fleet_seed(), std::runtime_error);
  ::unsetenv("VLACNN_FLEET_SEED");
}

// ------------------------------------------------------ chip spec ----------

TEST(FleetChipSpec, EmptyHostedModelsMeansFullReplication) {
  ChipSpec spec;
  EXPECT_TRUE(spec.hosts(0));
  EXPECT_TRUE(spec.hosts(7));
  spec.hosted_models = {1};
  EXPECT_FALSE(spec.hosts(0));
  EXPECT_TRUE(spec.hosts(1));
}

TEST(FleetChipSpec, ShortLabelEncodesThePoint) {
  ChipSpec spec;
  spec.point = {4, 2048, 16ull << 20, 4};
  EXPECT_EQ(spec.short_label(), "c4v2048l16i4");
  spec.point = {64, 4096, 256ull << 20, 64};
  EXPECT_EQ(spec.short_label(), "c64v4096l256i64");
}

// ----------------------------------------------------- event loop ----------

/// A fleet of `n` identical chips with one synthetic cost model per mix
/// model. hosted_models left empty = full replication.
FleetConfig fleet_config(int n_chips, int instances,
                         std::vector<BatchCostModel> costs,
                         int num_models = 1) {
  FleetConfig fc;
  for (int c = 0; c < n_chips; ++c) {
    FleetChip chip;
    chip.spec.point = {1, 512, 1ull << 20, instances};
    chip.costs = costs;
    chip.area_mm2 = 10.0;
    fc.chips.push_back(chip);
  }
  fc.mix.seed = 1;
  for (int m = 0; m < num_models; ++m) {
    fc.mix.names.push_back("m" + std::to_string(m));
    fc.mix.shares.push_back(1.0);
  }
  fc.policy = {BatchPolicySpec::Kind::kNoBatch, 8, 0};
  return fc;
}

TEST(FleetSim, SingleChipHopZeroMatchesSimulateRequests) {
  // One chip, one model, zero hop: the fleet loop must reproduce the
  // single-chip simulator bit for bit — same latencies, same attribution,
  // same JSON. The fleet determinism contract's base case.
  const BatchCostModel cost{300.0, 150.0};
  RequestSimConfig sc;
  sc.instances = 2;
  sc.cost = cost;
  sc.slo_cycles = 2000.0;
  PoissonArrivals a1(400.0, 2000, 42);
  AdaptiveBatchPolicy p1(8, 500.0);
  const ServingStats single = simulate_requests(sc, a1, p1);

  FleetConfig fc = fleet_config(1, 2, {cost});
  fc.policy = {BatchPolicySpec::Kind::kAdaptive, 8, 500.0};
  fc.slo_cycles = 2000.0;
  PoissonArrivals a2(400.0, 2000, 42);
  const FleetStats fleet = simulate_fleet(fc, a2);

  EXPECT_EQ(fleet.fleet.to_json(), single.to_json());
  ASSERT_EQ(fleet.per_chip.size(), 1u);
  EXPECT_EQ(fleet.per_chip[0].to_json(), single.to_json());
  EXPECT_EQ(fleet.mean_router_hop, 0.0);

  // A wait split whose naive head leaves a rounding residue: one busy
  // instance, the second request queued behind it.
  const BatchCostModel big{11338766440.261736, 11338766440.261736};
  RequestSimConfig sc2;
  sc2.cost = big;
  TraceArrivals a3({0.0, 5116220409.0583754});
  NoBatchPolicy p3;
  const ServingStats single2 = simulate_requests(sc2, a3, p3);
  FleetConfig fc2 = fleet_config(1, 1, {big});
  TraceArrivals a4({0.0, 5116220409.0583754});
  const FleetStats fleet2 = simulate_fleet(fc2, a4);
  EXPECT_EQ(fleet2.fleet.to_json(), single2.to_json());
  EXPECT_EQ(single2.mean_formation_wait, 0.0);
}

TEST(FleetSim, HandComputedHopSchedule) {
  // One request at t=0, hop 10, service 50: it is routed at 0, joins the
  // queue at 10, dispatches at 10, completes at 60. Exact, no tolerance.
  FleetConfig fc = fleet_config(1, 1, {{50.0, 10.0}});
  fc.router_hop_cycles = 10.0;
  std::vector<FleetRequestRecord> log;
  fc.request_log = &log;
  TraceArrivals arrivals({0.0});
  const FleetStats s = simulate_fleet(fc, arrivals);
  EXPECT_EQ(s.fleet.completed, 1u);
  EXPECT_EQ(s.fleet.makespan, 60.0);
  EXPECT_EQ(s.fleet.mean_latency, 60.0);
  EXPECT_EQ(s.mean_router_hop, 10.0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].router_hop, 10.0);
  EXPECT_EQ(log[0].rec.queue_wait, 0.0);
  EXPECT_EQ(log[0].rec.formation_wait, 0.0);
  EXPECT_EQ(log[0].rec.service, 50.0);
  EXPECT_EQ(log[0].rec.dispatch, 10.0);
  EXPECT_EQ(log[0].rec.completion, 60.0);
}

TEST(FleetSim, FourSpanAttributionIsExact) {
  // The extended Sterbenz identity, on an awkward non-representable hop over
  // a loaded two-chip fleet: for every completed request,
  //   (hop + (queue_wait + formation_wait)) + service == completion - arrival
  // left-to-right, bit-exactly.
  FleetConfig fc = fleet_config(2, 2, {{301.7, 149.3}});
  fc.policy = {BatchPolicySpec::Kind::kAdaptive, 8, 333.3};
  fc.router_hop_cycles = 7.3;
  fc.slo_cycles = 5000.0;
  std::vector<FleetRequestRecord> log;
  fc.request_log = &log;
  PoissonArrivals arrivals(200.0, 3000, 7);
  const FleetStats s = simulate_fleet(fc, arrivals);
  EXPECT_EQ(s.fleet.completed, 3000u);
  ASSERT_EQ(log.size(), 3000u);
  for (const FleetRequestRecord& r : log) {
    EXPECT_EQ(
        (r.router_hop + (r.rec.queue_wait + r.rec.formation_wait)) +
            r.rec.service,
        r.rec.completion - r.rec.arrival);
    EXPECT_GE(r.router_hop, 0.0);
    EXPECT_GE(r.rec.queue_wait, 0.0);
    EXPECT_GE(r.rec.formation_wait, 0.0);
    EXPECT_GT(r.rec.service, 0.0);
    EXPECT_TRUE(r.chip == 0 || r.chip == 1);
  }
  EXPECT_GT(s.mean_router_hop, 0.0);
}

TEST(FleetSim, JsqSpreadsSimultaneousLoad) {
  // Two identical chips, two back-to-back requests, long service: JSQ sends
  // the first to chip 0 (all-zero outstanding, lowest index) and the second
  // to chip 1 (chip 0 now has one outstanding).
  FleetConfig fc = fleet_config(2, 1, {{1000.0, 1000.0}});
  std::vector<FleetRequestRecord> log;
  fc.request_log = &log;
  TraceArrivals arrivals({0.0, 1.0});
  simulate_fleet(fc, arrivals);
  ASSERT_EQ(log.size(), 2u);
  std::set<int> chips;
  for (const auto& r : log) chips.insert(r.chip);
  EXPECT_EQ(chips, (std::set<int>{0, 1}));
}

TEST(FleetSim, QueueCapacityDropsAreCounted) {
  // One instance, capacity-1 waiting room, service far longer than the trace:
  // request 0 dispatches, request 1 queues, the rest are rejected.
  FleetConfig fc = fleet_config(1, 1, {{10000.0, 10000.0}});
  fc.queue_capacity = 1;
  TraceArrivals arrivals({0.0, 1.0, 2.0, 3.0, 4.0});
  const FleetStats s = simulate_fleet(fc, arrivals);
  EXPECT_EQ(s.fleet.offered, 5u);
  EXPECT_EQ(s.fleet.completed, 2u);
  EXPECT_EQ(s.fleet.dropped, 3u);
  ASSERT_EQ(s.per_model.size(), 1u);
  EXPECT_EQ(s.per_model[0].offered, 5u);
  EXPECT_EQ(s.per_model[0].completed, 2u);
  EXPECT_EQ(s.per_model[0].dropped, 3u);
}

TEST(FleetSim, PlacementRestrictsRouting) {
  // Chip 0 hosts only model 1; chip 1 hosts both. Every model-0 request must
  // land on chip 1, whatever the router would prefer.
  FleetConfig fc = fleet_config(2, 2, {{100.0, 50.0}, {100.0, 50.0}}, 2);
  fc.chips[0].spec.hosted_models = {1};
  std::vector<FleetRequestRecord> log;
  fc.request_log = &log;
  PoissonArrivals arrivals(50.0, 500, 3);
  const FleetStats s = simulate_fleet(fc, arrivals);
  EXPECT_EQ(s.fleet.completed, 500u);
  int model0 = 0;
  for (const auto& r : log) {
    if (r.model == 0) {
      ++model0;
      EXPECT_EQ(r.chip, 1);
    }
  }
  EXPECT_GT(model0, 0);  // the mix actually produced model-0 traffic
}

TEST(FleetSim, ServiceModelOverridesOneQueue) {
  // A per-(chip, model) ServiceModel replaces that queue's cost model: one
  // wrapping the same coefficients reproduces the plain run byte for byte,
  // is called once per batch it serves, and its dispatch notes reach exactly
  // the traces of that queue.
  class NotingModel final : public ServiceModel {
   public:
    explicit NotingModel(BatchCostModel cost) : cost_(cost) {}
    double service_cycles(int batch) override {
      ++calls;
      return cost_.service_cycles(batch);
    }
    void trace_annotations(std::vector<obs::TraceNote>& out) override {
      out.push_back({"plan", "noted"});
    }
    int calls = 0;

   private:
    BatchCostModel cost_;
  };
  const std::vector<BatchCostModel> costs = {{300.0, 150.0}, {200.0, 100.0}};
  FleetConfig fc = fleet_config(2, 1, costs, 2);
  PoissonArrivals a1(400.0, 600, 5);
  const FleetStats plain = simulate_fleet(fc, a1);

  NotingModel model(costs[0]);
  fc.chips[1].services = {&model, nullptr};
  fc.chips[1].costs[0] = {0.0, 0.0};  // overridden: never read or validated
  std::vector<FleetRequestRecord> log;
  fc.request_log = &log;
  obs::ReqTraceConfig rtc;
  rtc.top_k = 10000;
  rtc.head_every = 1;  // keep every trace
  obs::RequestTraceRecorder rec(rtc);
  fc.reqtrace = &rec;
  PoissonArrivals a2(400.0, 600, 5);
  const FleetStats s = simulate_fleet(fc, a2);
  EXPECT_EQ(s.to_json(), plain.to_json());

  int served = 0;  // nobatch: one batch per request on chip 1, model 0
  for (const FleetRequestRecord& r : log) served += r.chip == 1 && r.model == 0;
  EXPECT_GT(served, 0);
  EXPECT_EQ(model.calls, served);
  int noted = 0;
  for (const obs::RequestTrace& t : rec.sampled()) {
    if (t.notes.empty()) continue;
    ++noted;
    EXPECT_EQ(t.chip, 1);
  }
  EXPECT_EQ(noted, served);
}

TEST(FleetSim, CallerOwnedRecordersSeeTheWholeFleet) {
  // Caller-owned recorders are fed every chip's events and finished at the
  // fleet makespan; nothing reaches the global sinks in that mode.
  obs::TimelineSink::global().reset();
  obs::ReqTraceSink::global().reset();
  FleetConfig fc = fleet_config(2, 2, {{300.0, 150.0}});
  fc.queue_capacity = 2;
  obs::TimelineConfig tc;
  tc.interval_cycles = 1000.0;
  tc.instances = 4;
  obs::TimelineRecorder timeline(tc);
  obs::RequestTraceRecorder reqtrace(obs::ReqTraceConfig{});
  fc.timeline = &timeline;
  fc.reqtrace = &reqtrace;
  PoissonArrivals arrivals(60.0, 800, 9);
  const FleetStats s = simulate_fleet(fc, arrivals);
  EXPECT_GT(s.fleet.dropped, 0u);
  ASSERT_FALSE(timeline.snapshots().empty());
  const obs::TimelineSnapshot& last = timeline.snapshots().back();
  EXPECT_EQ(last.t_end, s.fleet.makespan);
  EXPECT_EQ(last.cum_offered, s.fleet.offered);
  EXPECT_EQ(last.cum_completed, s.fleet.completed);
  EXPECT_EQ(last.cum_dropped, s.fleet.dropped);
  EXPECT_EQ(reqtrace.offered(), s.fleet.offered);
  EXPECT_EQ(reqtrace.completed(), s.fleet.completed);
  EXPECT_EQ(obs::TimelineSink::global().block_count(), 0u);
  EXPECT_EQ(obs::ReqTraceSink::global().block_count(), 0u);
}

TEST(FleetSim, PerModelSlicesCoverEveryRequest) {
  FleetConfig fc = fleet_config(2, 2, {{100.0, 50.0}, {200.0, 80.0}}, 2);
  fc.slo_cycles = 3000.0;
  PoissonArrivals arrivals(100.0, 1000, 11);
  const FleetStats s = simulate_fleet(fc, arrivals);
  ASSERT_EQ(s.per_model.size(), 2u);
  std::uint64_t offered = 0, completed = 0;
  for (const auto& ms : s.per_model) {
    offered += ms.offered;
    completed += ms.completed;
    EXPECT_GT(ms.offered, 0u);
    EXPECT_GT(ms.p99, 0.0);
    EXPECT_GE(ms.p99, ms.p50);
  }
  EXPECT_EQ(offered, s.fleet.offered);
  EXPECT_EQ(completed, s.fleet.completed);
}

TEST(FleetSim, RejectsInvalidConfigs) {
  TraceArrivals a1({0.0});
  FleetConfig empty;
  empty.mix = two_model_mix();
  EXPECT_THROW(simulate_fleet(empty, a1), std::invalid_argument);

  // A model with no hosting chip.
  FleetConfig orphan = fleet_config(1, 1, {{10.0, 5.0}, {10.0, 5.0}}, 2);
  orphan.chips[0].spec.hosted_models = {0};
  TraceArrivals a2({0.0});
  EXPECT_THROW(simulate_fleet(orphan, a2), std::invalid_argument);

  // Negative or non-finite hop.
  FleetConfig hop = fleet_config(1, 1, {{10.0, 5.0}});
  hop.router_hop_cycles = -1.0;
  TraceArrivals a3({0.0});
  EXPECT_THROW(simulate_fleet(hop, a3), std::invalid_argument);

  // Cost models must cover every mix model.
  FleetConfig short_costs = fleet_config(1, 1, {{10.0, 5.0}}, 2);
  TraceArrivals a4({0.0});
  EXPECT_THROW(simulate_fleet(short_costs, a4), std::invalid_argument);

  // A hosted model with a non-positive first-image cost.
  FleetConfig bad_cost = fleet_config(1, 1, {{0.0, 5.0}});
  TraceArrivals a5({0.0});
  EXPECT_THROW(simulate_fleet(bad_cost, a5), std::invalid_argument);
}

TEST(FleetSim, StatsJsonIsStableAndSelfDescribing) {
  FleetConfig fc = fleet_config(2, 1, {{100.0, 50.0}});
  PoissonArrivals a1(150.0, 400, 5);
  const FleetStats s1 = simulate_fleet(fc, a1);
  PoissonArrivals a2(150.0, 400, 5);
  const FleetStats s2 = simulate_fleet(fc, a2);
  EXPECT_EQ(s1.to_json(), s2.to_json());  // same seed: byte-identical
  const std::string j = s1.to_json();
  EXPECT_NE(j.find("\"fleet\": "), std::string::npos);
  EXPECT_NE(j.find("\"mean_router_hop\": "), std::string::npos);
  EXPECT_NE(j.find("\"total_area_mm2\": "), std::string::npos);
  EXPECT_NE(j.find("\"per_chip\": ["), std::string::npos);
  EXPECT_NE(j.find("\"per_model\": ["), std::string::npos);
  EXPECT_NE(j.find("\"label\": \"c1v512l1i1\""), std::string::npos);
  EXPECT_EQ(s1.total_area_mm2, 20.0);  // two 10 mm2 chips
}

// ------------------------------------------------- fleet planner -----------

TEST(FleetPlannerLabel, CompositionLabelSkipsZeroCounts) {
  std::vector<ServingPoint> types;
  types.push_back({4, 2048, 16ull << 20, 4});
  types.push_back({1, 512, 1ull << 20, 1});
  EXPECT_EQ(composition_label(types, {2, 1}), "2xc4v2048l16i4+1xc1v512l1i1");
  EXPECT_EQ(composition_label(types, {0, 3}), "3xc1v512l1i1");
  EXPECT_EQ(composition_label(types, {1, 0}), "1xc4v2048l16i4");
}

class FleetPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vlacnn_fleet_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Network tiny_a() {
    Network net("tiny_a", {3, 32, 32});
    net.conv(8, 3, 1, 1);
    net.conv(16, 3, 2, 1);
    net.conv(8, 1, 1, 0);
    return net;
  }
  static Network tiny_b() {
    Network net("tiny_b", {3, 48, 48});
    net.conv(8, 3, 1, 1);
    net.conv(8, 3, 2, 1);
    return net;
  }
  static FleetTrafficMix mix() {
    FleetTrafficMix m;
    m.names = {"tiny_a", "tiny_b"};
    m.shares = {0.6, 0.4};
    m.seed = 42;
    return m;
  }
  static FleetQuery query() {
    FleetQuery q;
    q.load_rps = 100000;  // tiny nets are fast; drive them hard
    q.slo_ms = 5;
    q.requests = 400;
    q.seed = 42;
    q.policy = {BatchPolicySpec::Kind::kAdaptive, 8, 20000.0};
    q.max_chips = 3;
    q.max_chip_types = 3;
    return q;
  }

  std::filesystem::path dir_;
};

TEST_F(FleetPlannerTest, ChipTypeMenuIsAreaAscendingAndDeterministic) {
  ResultsDb db((dir_ / "menu.csv").string());
  SweepDriver driver(&db);
  FleetPlanner planner(&driver);
  const std::vector<Network> nets{tiny_a(), tiny_b()};
  const auto menu = planner.chip_type_menu(nets, mix(), query());
  ASSERT_FALSE(menu.empty());
  EXPECT_LE(menu.size(), 3u);
  AreaModel area;
  double prev = 0;
  for (const ServingPoint& p : menu) {
    const double a = area.chip_mm2(p.vlen_bits, p.l2_total_bytes, p.cores);
    EXPECT_GE(a, prev);
    prev = a;
  }
  const auto again = planner.chip_type_menu(nets, mix(), query());
  ASSERT_EQ(menu.size(), again.size());
  for (std::size_t i = 0; i < menu.size(); ++i) {
    EXPECT_EQ(menu[i].vlen_bits, again[i].vlen_bits);
    EXPECT_EQ(menu[i].l2_total_bytes, again[i].l2_total_bytes);
  }
}

TEST_F(FleetPlannerTest, PlanIsByteIdenticalAcrossPoolSizes) {
  const std::vector<Network> nets{tiny_a(), tiny_b()};

  ResultsDb db1((dir_ / "p1.csv").string());
  SweepDriver d1(&db1);
  ThreadPool pool1(1);
  const FleetPlan r1 = FleetPlanner(&d1).plan(nets, mix(), query(), &pool1);

  ResultsDb db8((dir_ / "p8.csv").string());
  SweepDriver d8(&db8);
  ThreadPool pool8(8);
  const FleetPlan r8 = FleetPlanner(&d8).plan(nets, mix(), query(), &pool8);

  ASSERT_EQ(r1.candidates.size(), r8.candidates.size());
  ASSERT_FALSE(r1.candidates.empty());
  for (std::size_t i = 0; i < r1.candidates.size(); ++i) {
    EXPECT_EQ(r1.candidates[i].label, r8.candidates[i].label) << i;
    EXPECT_EQ(r1.candidates[i].simulated, r8.candidates[i].simulated) << i;
    EXPECT_EQ(r1.candidates[i].total_area_mm2, r8.candidates[i].total_area_mm2)
        << i;
    if (r1.candidates[i].simulated) {
      EXPECT_EQ(r1.candidates[i].stats.to_json(),
                r8.candidates[i].stats.to_json())
          << i;
    }
  }
  EXPECT_EQ(r1.best.has_value(), r8.best.has_value());
  if (r1.best.has_value()) {
    EXPECT_EQ(r1.best->label, r8.best->label);
  }
}

TEST_F(FleetPlannerTest, PlanFindsAFeasibleFleetAndOrdersHeadlines) {
  ResultsDb db((dir_ / "plan.csv").string());
  SweepDriver driver(&db);
  const std::vector<Network> nets{tiny_a(), tiny_b()};
  ThreadPool pool(4);
  const FleetPlan plan = FleetPlanner(&driver).plan(nets, mix(), query(),
                                                    &pool);
  ASSERT_TRUE(plan.best.has_value());
  EXPECT_TRUE(plan.best->meets_slo);
  EXPECT_TRUE(plan.best->simulated);
  EXPECT_GT(plan.best->total_area_mm2, 0.0);
  // The overall winner can only tie or beat the homogeneous one: the
  // homogeneous set is a subset of the search space.
  if (plan.best_homogeneous.has_value()) {
    EXPECT_LE(plan.best->total_area_mm2,
              plan.best_homogeneous->total_area_mm2);
  }
  // Every feasible candidate simulated, none cheaper than the winner.
  for (const FleetCandidate& c : plan.candidates) {
    if (c.simulated && c.meets_slo) {
      EXPECT_GE(c.total_area_mm2, plan.best->total_area_mm2);
    }
  }
}

TEST_F(FleetPlannerTest, CandidatesMatchFleetsBuiltChipByChip) {
  // plan() resolves each chip type's cost models once for every composition.
  // Each simulated candidate must equal the fleet built chip by chip, every
  // cost looked up through batch_cost_model on its own.
  ResultsDb db((dir_ / "chips.csv").string());
  SweepDriver driver(&db);
  const std::vector<Network> nets{tiny_a(), tiny_b()};
  const FleetQuery q = query();
  const FleetPlan plan = FleetPlanner(&driver).plan(nets, mix(), q);
  const AreaModel area;
  std::size_t simulated = 0;
  for (const FleetCandidate& cand : plan.candidates) {
    if (!cand.simulated) continue;
    ++simulated;
    FleetConfig fc;
    fc.mix = mix();
    fc.router = q.router;
    fc.policy = q.policy;
    fc.queue_capacity = q.queue_capacity;
    fc.slo_cycles = q.slo_ms * 1e-3 * q.clock_hz;
    fc.router_hop_cycles = q.router_hop_cycles;
    fc.attainment_target = q.attainment_target;
    for (std::size_t t = 0; t < plan.chip_types.size(); ++t) {
      const ServingPoint& p = plan.chip_types[t];
      for (int n = 0; n < cand.counts[t]; ++n) {
        FleetChip chip;
        chip.spec.point = p;
        for (const Network& net : nets) {
          chip.costs.push_back(batch_cost_model(
              driver, net, p.vlen_bits, p.l2_slice_bytes(), std::nullopt));
        }
        chip.area_mm2 = area.chip_mm2(p.vlen_bits, p.l2_total_bytes, p.cores);
        fc.chips.push_back(chip);
      }
    }
    PoissonArrivals arrivals(q.clock_hz / q.load_rps, q.requests, q.seed);
    EXPECT_EQ(simulate_fleet(fc, arrivals).to_json(), cand.stats.to_json())
        << cand.label;
  }
  EXPECT_GT(simulated, 1u);
}

TEST_F(FleetPlannerTest, PlanRejectsInconsistentInputs) {
  ResultsDb db((dir_ / "bad.csv").string());
  SweepDriver driver(&db);
  FleetPlanner planner(&driver);
  const std::vector<Network> one{tiny_a()};
  EXPECT_THROW(planner.plan(one, mix(), query()), std::invalid_argument);
  FleetQuery q = query();
  q.load_rps = 0;
  const std::vector<Network> nets{tiny_a(), tiny_b()};
  EXPECT_THROW(planner.plan(nets, mix(), q), std::invalid_argument);
  q = query();
  q.max_chips = 0;
  EXPECT_THROW(planner.plan(nets, mix(), q), std::invalid_argument);
}

}  // namespace
}  // namespace vlacnn::serving
