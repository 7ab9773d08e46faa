// Tests for the dispatch layer: FlatForest lowering fidelity and validation,
// the LearnedDispatcher bandit's accounting/convergence/determinism, the
// VLACNN_DISPATCH_CYCLES knob, and the learned-dispatch capacity-planner path
// (byte-identical across pool sizes, near-oracle once converged).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dispatch/learned_dispatcher.h"
#include "ml/dataset.h"
#include "obs/metrics.h"
#include "report/collector.h"
#include "serving/request_sim.h"

namespace vlacnn::dispatch {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Synthetic, perfectly separable dataset: label = (x0 > 0.5) + 2*(x1 > 0.5),
/// same shape as the selector's problem (labels index kAllAlgos).
Dataset separable(std::size_t n, std::uint64_t seed) {
  Dataset ds;
  ds.feature_names = {"x0", "x1", "noise"};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const float x0 = rng.next_float();
    const float x1 = rng.next_float();
    ds.x.push_back({x0, x1, rng.next_float()});
    ds.y.push_back((x0 > 0.5f ? 1 : 0) + (x1 > 0.5f ? 2 : 0));
  }
  return ds;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

RandomForest fitted(const Dataset& ds, int n_trees, std::uint64_t seed) {
  ForestParams p;
  p.n_trees = n_trees;
  p.seed = seed;
  RandomForest forest;
  forest.fit(ds, all_indices(ds.size()), p);
  return forest;
}

// -------------------------------------------------------- FlatForest -------

TEST(FlatForest, AgreesWithRandomForestEverywhere) {
  const Dataset ds = separable(300, 1);
  const RandomForest forest = fitted(ds, 25, 7);
  const FlatForest flat(forest, ds.num_classes());
  EXPECT_EQ(flat.tree_count(), forest.tree_count());
  EXPECT_EQ(flat.num_features(), forest.num_features());
  std::size_t total = 0;
  for (const auto& t : forest.trees()) total += t.node_count();
  EXPECT_EQ(flat.node_count(), total);

  // Training samples and off-distribution random points alike.
  for (const auto& x : ds.x) EXPECT_EQ(flat.predict(x), forest.predict(x));
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::vector<float> x{rng.uniform(-1.0f, 2.0f),
                               rng.uniform(-1.0f, 2.0f),
                               rng.uniform(-1.0f, 2.0f)};
    EXPECT_EQ(flat.predict(x), forest.predict(x));
  }
}

TEST(FlatForest, PredictIsLowestLabelArgmaxOfVotes) {
  // A tiny forest on half-flipped labels disagrees with itself often, which
  // exercises the tie path: predict must equal the lowest label among the
  // maxima of the raw vote tally, in both evaluators.
  Dataset ds = separable(120, 2);
  Rng flip(0xf11b);
  for (auto& y : ds.y) {
    if (flip.next_float() < 0.5f) y = static_cast<int>(flip.next_below(4));
  }
  const RandomForest forest = fitted(ds, 4, 5);  // even count invites ties
  const FlatForest flat(forest, ds.num_classes());

  Rng rng(3);
  int ties_seen = 0;
  for (int i = 0; i < 400; ++i) {
    const std::vector<float> x{rng.next_float(), rng.next_float(),
                               rng.next_float()};
    const std::vector<int> tally = forest.votes(x);
    int expected = 0, maxima = 0;
    for (std::size_t l = 0; l < tally.size(); ++l) {
      if (tally[l] > tally[expected]) expected = static_cast<int>(l);
    }
    for (int v : tally) maxima += v == tally[expected] ? 1 : 0;
    if (maxima > 1) ++ties_seen;
    EXPECT_EQ(forest.predict(x), expected);
    EXPECT_EQ(flat.predict(x), expected);
  }
  EXPECT_GT(ties_seen, 0);  // the rule was actually exercised, not vacuous
}

TEST(FlatForest, RejectsBadArguments) {
  const Dataset ds = separable(100, 4);
  const RandomForest forest = fitted(ds, 5, 9);
  EXPECT_THROW(FlatForest(RandomForest{}, 4), std::invalid_argument);
  EXPECT_THROW(FlatForest(forest, 0), std::invalid_argument);
  EXPECT_THROW(FlatForest(forest, FlatForest::kMaxLabels + 1),
               std::invalid_argument);
  // Labels 2/3 exist in the training data, so a 2-label space must fail
  // loudly at lowering time (this is the OOB-vote class of bug, caught early).
  EXPECT_THROW(FlatForest(forest, 2), std::invalid_argument);

  const FlatForest flat(forest, 4);
  EXPECT_THROW(flat.predict({1.0f, 2.0f}), std::invalid_argument);
}

// -------------------------------------------------- LearnedDispatcher ------

/// Forest that predicts label plan[l] for feature vector {l}: one feature,
/// perfectly separable, so the dispatcher's *initial* plan is exactly `plan`.
FlatForest plan_forest(const std::vector<int>& plan) {
  Dataset ds;
  ds.feature_names = {"layer"};
  for (std::size_t l = 0; l < plan.size(); ++l) {
    for (int copy = 0; copy < 40; ++copy) {
      ds.x.push_back({static_cast<float>(l)});
      ds.y.push_back(plan[l]);
    }
  }
  return FlatForest(fitted(ds, 15, 11), 4);
}

std::vector<std::vector<float>> layer_features(std::size_t layers) {
  std::vector<std::vector<float>> f;
  for (std::size_t l = 0; l < layers; ++l) {
    f.push_back({static_cast<float>(l)});
  }
  return f;
}

/// Three layers, kAllAlgos-shaped rows (NaN = inapplicable):
///   layer 0: oracle algo 0 (100), forest predicts 0 -> correct
///   layer 1: oracle algo 3 (150), forest predicts 1 (250) -> mispredicted
///   layer 2: oracle algo 2 (450), forest predicts 0 (500) -> mispredicted
LayerCycleTable mixed_table() {
  return {{{100, 200, 300, 400}},
          {{kNaN, 250, 200, 150}},
          {{500, kNaN, 450, 600}}};
}

DispatchConfig test_config(double epsilon) {
  DispatchConfig cfg;
  cfg.dispatch_cycles_per_layer = 10;
  cfg.epsilon = epsilon;
  return cfg;
}

TEST(LearnedDispatcher, InitialPlanAndBatchAccounting) {
  const FlatForest forest = plan_forest({0, 1, 0});
  ASSERT_EQ(forest.predict({0.0f}), 0);
  ASSERT_EQ(forest.predict({1.0f}), 1);
  ASSERT_EQ(forest.predict({2.0f}), 0);

  // epsilon = 0: the bandit never explores, so every batch prices the forest's
  // plan {0, 1, 0} = 100 + 250 + 500 = 850 cycles/image against the oracle's
  // 100 + 150 + 450 = 700.
  // 40 cycles of weight traffic at the DRAM rate.
  const double weight_bytes = 40.0 * MemConfig{}.mem_bytes_per_cycle;
  LearnedDispatcher d(&forest, mixed_table(), layer_features(3), weight_bytes,
                      test_config(0.0));
  EXPECT_EQ(d.plan(), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(d.stats().layers, 3);
  EXPECT_EQ(d.stats().mispredicted_layers, 2);
  EXPECT_FALSE(d.converged());

  // Batch of 1: per-image plus 3 layers x 10 selector cycles.
  EXPECT_DOUBLE_EQ(d.service_cycles(1), 850.0 + 30.0);
  // Batch of 4: the weight traffic amortizes off the three marginal images;
  // selector still charges every image.
  EXPECT_DOUBLE_EQ(d.service_cycles(4),
                   850.0 + 3.0 * (850.0 - 40.0) + 4.0 * 30.0);

  const DispatchStats& s = d.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.images, 5u);
  EXPECT_EQ(s.explorations, 0u);
  EXPECT_DOUBLE_EQ(s.learned_conv_cycles, 5.0 * 850.0);
  EXPECT_DOUBLE_EQ(s.oracle_conv_cycles, 5.0 * 700.0);
  EXPECT_DOUBLE_EQ(s.selector_cycles, 5.0 * 30.0);
  EXPECT_DOUBLE_EQ(s.oracle_gap(),
                   (5.0 * 850.0 + 5.0 * 30.0) / (5.0 * 700.0) - 1.0);
}

TEST(LearnedDispatcher, EpsilonOneConvergesToOraclePlan) {
  const FlatForest forest = plan_forest({0, 1, 0});
  LearnedDispatcher d(&forest, mixed_table(), layer_features(3), 40.0,
                      test_config(1.0));
  // Each mispredicted layer has two applicable-but-untried algorithms; at
  // epsilon = 1 every batch burns one per unconverged layer, so two batches
  // exhaust them all and land the plan on the oracle's.
  d.service_cycles(1);
  d.service_cycles(1);
  EXPECT_TRUE(d.converged());
  EXPECT_EQ(d.stats().explorations, 4u);
  EXPECT_EQ(d.plan(), (std::vector<int>{0, 3, 2}));
  // A converged dispatcher prices exactly oracle + selector forever after.
  EXPECT_DOUBLE_EQ(d.service_cycles(1), 700.0 + 30.0);
}

TEST(LearnedDispatcher, CorrectPredictionNeverExplores) {
  const FlatForest forest = plan_forest({0, 3, 2});  // the oracle plan
  LearnedDispatcher d(&forest, mixed_table(), layer_features(3), 40.0,
                      test_config(1.0));
  EXPECT_EQ(d.stats().mispredicted_layers, 0);
  EXPECT_TRUE(d.converged());
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(d.service_cycles(1), 700.0 + 30.0);
  }
  EXPECT_EQ(d.stats().explorations, 0u);
}

TEST(LearnedDispatcher, DeterministicGivenSeed) {
  const FlatForest forest = plan_forest({0, 1, 0});
  const DispatchConfig cfg = test_config(0.5);
  LearnedDispatcher a(&forest, mixed_table(), layer_features(3), 40.0, cfg);
  LearnedDispatcher b(&forest, mixed_table(), layer_features(3), 40.0, cfg);
  for (int batch : {1, 3, 2, 1, 4, 1, 1, 2}) {
    EXPECT_DOUBLE_EQ(a.service_cycles(batch), b.service_cycles(batch));
  }
  EXPECT_EQ(a.plan(), b.plan());
  EXPECT_EQ(a.stats().explorations, b.stats().explorations);
}

TEST(LearnedDispatcher, RejectsBadInput) {
  const FlatForest forest = plan_forest({0, 1, 0});
  const auto features = layer_features(3);
  const DispatchConfig ok = test_config(0.2);

  EXPECT_THROW(LearnedDispatcher(nullptr, mixed_table(), features, 40.0, ok),
               std::invalid_argument);
  EXPECT_THROW(LearnedDispatcher(&forest, {}, {}, 40.0, ok),
               std::invalid_argument);
  EXPECT_THROW(
      LearnedDispatcher(&forest, mixed_table(), layer_features(2), 40.0, ok),
      std::invalid_argument);

  DispatchConfig bad = ok;
  bad.dispatch_cycles_per_layer = 0;
  EXPECT_THROW(LearnedDispatcher(&forest, mixed_table(), features, 40.0, bad),
               std::invalid_argument);
  bad = ok;
  bad.epsilon = 1.5;
  EXPECT_THROW(LearnedDispatcher(&forest, mixed_table(), features, 40.0, bad),
               std::invalid_argument);

  // A layer with no applicable algorithm, and a non-positive cycle entry.
  LayerCycleTable all_nan = mixed_table();
  all_nan[1] = {kNaN, kNaN, kNaN, kNaN};
  EXPECT_THROW(LearnedDispatcher(&forest, all_nan, features, 40.0, ok),
               std::invalid_argument);
  LayerCycleTable zero = mixed_table();
  zero[0][2] = 0.0;
  EXPECT_THROW(LearnedDispatcher(&forest, zero, features, 40.0, ok),
               std::invalid_argument);

  LearnedDispatcher d(&forest, mixed_table(), features, 40.0, ok);
  EXPECT_THROW(d.service_cycles(0), std::invalid_argument);
}

// ------------------------------------------- VLACNN_DISPATCH_CYCLES --------

TEST(DefaultDispatchCycles, EnvKnobOverridesAndValidates) {
  ::unsetenv("VLACNN_DISPATCH_CYCLES");
  EXPECT_DOUBLE_EQ(default_dispatch_cycles(), kDefaultDispatchCyclesPerLayer);
  ::setenv("VLACNN_DISPATCH_CYCLES", "123.5", 1);
  EXPECT_DOUBLE_EQ(default_dispatch_cycles(), 123.5);
  ::setenv("VLACNN_DISPATCH_CYCLES", "bogus", 1);
  EXPECT_THROW(default_dispatch_cycles(), std::runtime_error);
  ::setenv("VLACNN_DISPATCH_CYCLES", "12x", 1);
  EXPECT_THROW(default_dispatch_cycles(), std::runtime_error);
  ::setenv("VLACNN_DISPATCH_CYCLES", "-5", 1);
  EXPECT_THROW(default_dispatch_cycles(), std::runtime_error);
  ::setenv("VLACNN_DISPATCH_CYCLES", "0", 1);
  EXPECT_THROW(default_dispatch_cycles(), std::runtime_error);
  ::setenv("VLACNN_DISPATCH_CYCLES", "", 1);  // empty means unset
  EXPECT_DOUBLE_EQ(default_dispatch_cycles(), kDefaultDispatchCyclesPerLayer);
  ::unsetenv("VLACNN_DISPATCH_CYCLES");
}

// ------------------------------------- planner integration (tiny net) ------

class DispatchCapacityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vlacnn_dispatch_" + std::to_string(::getpid()));
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

  /// Selector trained on the tiny net over a small hardware grid, using the
  /// given driver's cache.
  static std::shared_ptr<const FlatForest> tiny_forest(SweepDriver& driver,
                                                       const Network& net) {
    const Dataset ds = build_selection_dataset(
        driver, {&net}, {256, 512}, {1u << 20, 4u << 20});
    ForestParams p;
    p.n_trees = 20;
    RandomForest forest;
    forest.fit(ds, all_indices(ds.size()), p);
    return std::make_shared<const FlatForest>(forest, ds.num_classes());
  }

  std::filesystem::path dir_;
};

TEST_F(DispatchCapacityTest, LayerTableMatchesNetworkOptimal) {
  ResultsDb db((dir_ / "cache.csv").string());
  SweepDriver driver(&db);
  const Network net = tiny_net();
  const auto table = driver.layer_algo_cycles(net, 512, 1u << 20);
  ASSERT_EQ(table.size(), net.conv_descs().size());
  // Summing the per-layer minima must reproduce the network_optimal oracle —
  // layer_algo_cycles is the same ground truth in table form.
  double sum_min = 0;
  for (const auto& row : table) {
    double best = std::numeric_limits<double>::infinity();
    for (double c : row) {
      if (!std::isnan(c)) best = std::min(best, c);
    }
    ASSERT_TRUE(std::isfinite(best));
    sum_min += best;
  }
  const double oracle = driver.network_optimal(net, 512, 1u << 20).cycles;
  EXPECT_NEAR(sum_min, oracle, 1e-9 * oracle);
}

TEST_F(DispatchCapacityTest, ConvergedDispatcherMatchesOraclePlusSelector) {
  ResultsDb db((dir_ / "cache.csv").string());
  SweepDriver driver(&db);
  const Network net = tiny_net();
  const auto forest = tiny_forest(driver, net);
  const auto table = driver.layer_algo_cycles(net, 512, 1u << 20);
  std::vector<std::vector<float>> features;
  for (const ConvLayerDesc& d : net.conv_descs()) {
    features.push_back(selection_features(512, 1u << 20, d));
  }
  double oracle_per_image = 0;
  for (const auto& row : table) {
    double best = std::numeric_limits<double>::infinity();
    for (double c : row) {
      if (!std::isnan(c)) best = std::min(best, c);
    }
    oracle_per_image += best;
  }

  DispatchConfig cfg;
  cfg.dispatch_cycles_per_layer = 100;
  cfg.epsilon = 0.5;
  LearnedDispatcher d(forest.get(), table, features,
                      serving::conv_weight_bytes(net), cfg);
  for (int i = 0; i < 200 && !d.converged(); ++i) d.service_cycles(1);
  EXPECT_TRUE(d.converged());
  const double selector = 3.0 * cfg.dispatch_cycles_per_layer;
  EXPECT_NEAR(d.service_cycles(1), oracle_per_image + selector,
              1e-9 * oracle_per_image);
}

TEST_F(DispatchCapacityTest, LearnedGridIsByteIdenticalAcrossPoolSizes) {
  // The determinism guarantee extended to the learned path: same query, same
  // forest seed, pool sizes 1 vs 8 -> byte-identical per-point stats, and the
  // last-gap gauge ends on the last grid point's gap at both.
  const Network net = tiny_net();
  serving::CapacityQuery q;
  q.load_rps = 100000;
  q.slo_ms = 5;
  q.requests = 400;
  q.seed = 42;
  DispatchConfig dc;
  dc.dispatch_cycles_per_layer = 100;
  obs::FloatGauge& last_gap =
      obs::Registry::global().float_gauge("dispatch.last_oracle_gap");
  obs::set_metrics_mode(obs::ReportMode::kText);

  ResultsDb db1((dir_ / "p1.csv").string());
  SweepDriver d1(&db1);
  ThreadPool pool1(1);
  const auto f1 = learned_service_factory(tiny_forest(d1, net), &d1, net, dc);
  const auto r1 = serving::CapacityPlanner(&d1).evaluate_grid(net, q, f1, &pool1);
  const double gap1 = last_gap.value();

  ResultsDb db8((dir_ / "p8.csv").string());
  SweepDriver d8(&db8);
  ThreadPool pool8(8);
  const auto r8 = serving::CapacityPlanner(&d8).evaluate_grid(
      net, q, learned_service_factory(tiny_forest(d8, net), &d8, net, dc),
      &pool8);
  const double gap8 = last_gap.value();

  serving::CapacityPlanner(&d1).evaluate(
      net, ServingSimulator::grid_points().back(), q, f1);
  const double gap_last = last_gap.value();
  obs::set_metrics_mode(obs::ReportMode::kOff);

  ASSERT_EQ(r1.size(), r8.size());
  ASSERT_FALSE(r1.empty());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].stats.to_json(), r8[i].stats.to_json()) << i;
    EXPECT_EQ(r1[i].meets_slo, r8[i].meets_slo) << i;
  }
  EXPECT_EQ(gap1, gap8);
  EXPECT_EQ(gap1, gap_last);
}

TEST_F(DispatchCapacityTest, LearnedGridSimulatesEachDistinctConfigurationOnce) {
  // A learned model reads only (vlen, L2 slice), so the grid runs one
  // simulation per distinct (vlen, slice, instances), each on a fresh clone
  // of its pair's dispatcher. Every candidate must still equal its point
  // evaluated on its own, and every point still publishes its own dispatch
  // metrics and report cell.
  const Network net = tiny_net();
  serving::CapacityQuery q;
  q.load_rps = 100000;
  q.slo_ms = 5;
  q.requests = 200;  // the queue is unbounded, so nothing drops
  DispatchConfig dc;
  dc.dispatch_cycles_per_layer = 100;
  ResultsDb db((dir_ / "dedupe.csv").string());
  SweepDriver driver(&db);
  const auto factory =
      learned_service_factory(tiny_forest(driver, net), &driver, net, dc);
  const serving::CapacityPlanner planner(&driver);
  const std::vector<ServingPoint> points = ServingSimulator::grid_points();
  const std::size_t distinct = group_points(points, true).first.size();
  ASSERT_EQ(points.size(), 160u);
  ASSERT_EQ(distinct, 56u);

  obs::Registry& reg = obs::Registry::global();
  obs::Counter& completed = reg.counter("serving.requests_completed");
  obs::Counter& images = reg.counter("dispatch.images");
  obs::Histogram& gaps = reg.histogram("dispatch.oracle_gap_bp");
  report::Collector::global().reset();
  report::set_report_dir((dir_ / "report").string());
  obs::set_metrics_mode(obs::ReportMode::kText);
  const std::uint64_t completed0 = completed.value();
  const std::uint64_t images0 = images.value();
  const std::uint64_t gaps0 = gaps.count();
  ThreadPool pool(4);
  const auto grid = planner.evaluate_grid(net, q, factory, &pool);
  obs::set_metrics_mode(obs::ReportMode::kOff);
  const std::size_t cells = report::Collector::global()
                                .snapshot("dedupe", 0)
                                .cells(report::Section::kDispatch)
                                .size();
  report::set_report_dir("");
  report::Collector::global().reset();

  EXPECT_EQ(completed.value() - completed0, distinct * q.requests);
  EXPECT_EQ(images.value() - images0, points.size() * q.requests);
  EXPECT_EQ(gaps.count() - gaps0, points.size());
  EXPECT_EQ(cells, points.size());
  ASSERT_EQ(grid.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const serving::CapacityCandidate one =
        planner.evaluate(net, points[i], q, factory);
    EXPECT_EQ(grid[i].stats.dropped, 0u) << i;
    EXPECT_EQ(grid[i].stats.to_json(), one.stats.to_json()) << i;
    EXPECT_EQ(grid[i].meets_slo, one.meets_slo) << i;
  }
}

TEST_F(DispatchCapacityTest, FactoryPathRejectsNullAndEmpty) {
  ResultsDb db((dir_ / "cache.csv").string());
  SweepDriver driver(&db);
  const Network net = tiny_net();
  DispatchConfig dc;
  EXPECT_THROW(learned_service_factory(nullptr, &driver, net, dc),
               std::invalid_argument);
  EXPECT_THROW(
      learned_service_factory(tiny_forest(driver, net), nullptr, net, dc),
      std::invalid_argument);

  serving::CapacityPlanner planner(&driver);
  serving::CapacityQuery q;
  EXPECT_THROW(planner.evaluate(net, ServingPoint{1, 512, 1u << 20, 1}, q,
                                serving::ServiceModelFactory{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vlacnn::dispatch
