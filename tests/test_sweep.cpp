// Tests for the results cache, the sweep driver, the area model, the serving
// simulator, and the selectors / ConvEngine front door.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <tuple>

#include "area/area_model.h"
#include "common/rng.h"
#include "core/conv_engine.h"
#include "core/selector.h"
#include "net/models.h"
#include "obs/metrics.h"
#include "serving/serving.h"
#include "sweep/sweep.h"

namespace vlacnn {
namespace {

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vlacnn_sweep_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    path_ = (dir_ / "cache.csv").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A fast, shape-faithful miniature network for sweep tests.
  static Network tiny_net() {
    Network net("tiny", {3, 32, 32});
    net.conv(8, 3, 1, 1);           // 3x3 s1: all algorithms applicable
    net.conv(16, 3, 2, 1);          // stride 2
    net.conv(8, 1, 1, 0);           // 1x1
    return net;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(SweepTest, ComputesAndCaches) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  const SweepRow r1 = driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20);
  EXPECT_GT(r1.cycles, 0);
  EXPECT_EQ(db.size(), 1u);
  const SweepRow r2 = driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20);
  EXPECT_DOUBLE_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(db.size(), 1u);  // no duplicate
}

TEST_F(SweepTest, PersistsAcrossDbInstances) {
  double cycles = 0;
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  {
    ResultsDb db(path_);
    SweepDriver driver(&db);
    cycles = driver.get("tiny", 0, d, Algo::kDirect, 1024, 4u << 20).cycles;
  }
  ResultsDb db2(path_);
  EXPECT_EQ(db2.size(), 1u);
  SweepDriver driver2(&db2);
  EXPECT_DOUBLE_EQ(
      driver2.get("tiny", 0, d, Algo::kDirect, 1024, 4u << 20).cycles, cycles);
}

TEST_F(SweepTest, StaleDescriptorDetected) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20);
  ConvLayerDesc changed = d;
  changed.oc = 16;
  EXPECT_THROW(driver.get("tiny", 0, changed, Algo::kGemm3, 512, 1u << 20),
               std::runtime_error);
}

TEST_F(SweepTest, DistinctKeysStored) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20);
  driver.get("tiny", 0, d, Algo::kGemm3, 1024, 1u << 20);
  driver.get("tiny", 0, d, Algo::kGemm6, 512, 1u << 20);
  driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20, 8,
             VpuAttach::kDecoupledL2);
  EXPECT_EQ(db.size(), 4u);
}

TEST_F(SweepTest, NetworkOptimalNeverWorseThanAnySingleAlgorithm) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  const Network net = tiny_net();
  const auto opt = driver.network_optimal(net, 512, 1u << 20);
  EXPECT_EQ(opt.plan.size(), 3u);
  for (Algo a : kAllAlgos) {
    EXPECT_LE(opt.cycles, driver.network_cycles(net, a, 512, 1u << 20) + 1e-9)
        << to_string(a);
  }
  // The optimal plan must reproduce its own cycle count.
  EXPECT_NEAR(driver.network_plan_cycles(net, opt.plan, 512, 1u << 20),
              opt.cycles, 1e-6);
}

TEST_F(SweepTest, NetworkRowsApplyFallback) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  const Network net = tiny_net();
  const auto rows = driver.network_rows(net, Algo::kWinograd, 512, 1u << 20);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key.algo, Algo::kWinograd);
  EXPECT_EQ(rows[1].key.algo, Algo::kGemm6);  // stride 2 fallback
  EXPECT_EQ(rows[2].key.algo, Algo::kGemm6);  // 1x1 fallback
}

TEST_F(SweepTest, ReproExactModeParsesStrictly) {
  ::unsetenv("REPRO_EXACT");
  EXPECT_FALSE(repro_exact_mode());
  for (const char* v : {"1", "true", "TRUE", "yes", "on", "On"}) {
    ::setenv("REPRO_EXACT", v, 1);
    EXPECT_TRUE(repro_exact_mode()) << v;
  }
  for (const char* v : {"0", "false", "no", "off", "OFF", ""}) {
    ::setenv("REPRO_EXACT", v, 1);
    EXPECT_FALSE(repro_exact_mode()) << v;
  }
  for (const char* v : {"10", "2", "maybe", "yess"}) {
    ::setenv("REPRO_EXACT", v, 1);
    EXPECT_THROW(repro_exact_mode(), std::runtime_error) << v;
  }
  ::unsetenv("REPRO_EXACT");
}

TEST_F(SweepTest, ParallelFanOutMatchesSerialBitwise) {
  const Network net = tiny_net();
  const auto descs = net.conv_descs();

  // Serial reference: one get() at a time against its own cache file,
  // replicating the pre-parallel network_optimal loop exactly.
  ResultsDb serial_db((dir_ / "serial.csv").string());
  SweepDriver serial(&serial_db);
  std::vector<Algo> serial_plan;
  double serial_cycles = 0;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    Algo best_algo = Algo::kGemm6;
    for (Algo a : kAllAlgos) {
      if (!algo_applicable(a, descs[i])) continue;
      const SweepRow r = serial.get(net.name(), static_cast<int>(i), descs[i],
                                    a, 1024, 4u << 20);
      if (r.cycles < best) {
        best = r.cycles;
        best_algo = a;
      }
    }
    serial_plan.push_back(best_algo);
    serial_cycles += best;
  }

  // Parallel engine on a fresh cache: plan and cycles must be bit-identical.
  ResultsDb par_db((dir_ / "parallel.csv").string());
  SweepDriver parallel(&par_db);
  const auto opt = parallel.network_optimal(net, 1024, 4u << 20);
  EXPECT_EQ(opt.plan, serial_plan);
  EXPECT_EQ(opt.cycles, serial_cycles);  // exact, not NEAR

  // Per-row outputs are bit-identical too.
  for (Algo a : kAllAlgos) {
    const auto rows = parallel.network_rows(net, a, 1024, 4u << 20);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow ref =
          serial.get(net.name(), static_cast<int>(i), descs[i],
                     rows[i].key.algo, 1024, 4u << 20);
      EXPECT_EQ(rows[i].cycles, ref.cycles);
      EXPECT_EQ(rows[i].avg_vl, ref.avg_vl);
      EXPECT_EQ(rows[i].l2_miss_rate, ref.l2_miss_rate);
    }
  }
}

TEST_F(SweepTest, GetManyDeduplicatesIdenticalRequests) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  std::vector<SweepRequest> reqs(
      64, SweepRequest{"tiny", 0, d, Algo::kGemm3, 512, 1u << 20, 8,
                       VpuAttach::kIntegratedL1});
  const auto rows = driver.get_many(reqs);
  ASSERT_EQ(rows.size(), reqs.size());
  EXPECT_EQ(db.size(), 1u);  // single-flight: one simulation, one cache row
  for (const SweepRow& r : rows) EXPECT_EQ(r.cycles, rows[0].cycles);
}

TEST_F(SweepTest, ColdGetManySimulatesEachShapeOnce) {
  // A row is a function of its shape (layer descriptor and hardware point),
  // so a cold sweep simulates each distinct shape once and stores a copy for
  // every other key of it: VGG-16@32 has 13 conv layers but 9 shapes. Each
  // row must still equal a cold get of its key alone.
  const Network net = make_vgg16(32);
  const auto descs = net.conv_descs();
  ASSERT_EQ(descs.size(), 13u);
  std::vector<SweepRequest> reqs;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    reqs.push_back({net.name(), static_cast<int>(i), descs[i], Algo::kGemm6,
                    512, 1u << 20, 8, VpuAttach::kIntegratedL1});
  }
  obs::Counter& sims = obs::Registry::global().counter("sweep.sim_points");
  obs::set_metrics_mode(obs::ReportMode::kText);
  const std::uint64_t before = sims.value();
  ResultsDb db(path_);
  const std::vector<SweepRow> rows = SweepDriver(&db).get_many(reqs);
  const std::uint64_t ran = sims.value() - before;
  obs::set_metrics_mode(obs::ReportMode::kOff);
  EXPECT_EQ(ran, 9u);
  EXPECT_EQ(db.computed(), 9u);
  EXPECT_EQ(db.size(), 13u);
  ASSERT_EQ(rows.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const SweepRequest& q = reqs[i];
    ResultsDb alone((dir_ / ("alone" + std::to_string(i) + ".csv")).string());
    const SweepRow want = SweepDriver(&alone).get(
        q.net, q.layer, q.desc, q.algo, q.vlen_bits, q.l2_bytes);
    EXPECT_EQ(rows[i].key.layer, q.layer);
    EXPECT_TRUE(bit_identical(rows[i], want)) << "layer " << i;
  }
}

class CommittedCache : public SweepTest {};

TEST_F(CommittedCache, StratifiedSampleReproducesColdBitForBit) {
  // The committed cache is a function of the code and its keys: a seeded
  // sample of its rows, one per (attach, lanes, algorithm) stratum,
  // re-simulates cold to the same bits. Each draw is among the stratum's
  // rows below its median flops, which keeps the sanitizer runs short.
  std::filesystem::create_directories(dir_);
  // A copy, so a heal on load can never rewrite the committed file.
  const std::string committed = (dir_ / "committed.csv").string();
  std::filesystem::copy_file(VLACNN_COMMITTED_CACHE, committed);
  std::map<std::tuple<VpuAttach, std::uint32_t, Algo>, std::vector<SweepRow>>
      strata;
  for (const SweepRow& r : ResultsDb(committed).rows()) {
    strata[{r.key.attach, r.key.lanes, r.key.algo}].push_back(r);
  }
  for (std::uint32_t lanes : {2u, 4u, 8u}) {
    EXPECT_TRUE(strata.count({VpuAttach::kDecoupledL2, lanes, Algo::kGemm3}))
        << lanes << " lanes";
  }
  for (Algo a : kAllAlgos) {
    EXPECT_TRUE(strata.count({VpuAttach::kIntegratedL1, 8, a})) << to_string(a);
  }

  ResultsDb fresh(path_);
  SweepDriver driver(&fresh);
  Rng rng(20261019);
  for (auto& [stratum, rows] : strata) {
    std::vector<double> flops;
    for (const SweepRow& r : rows) flops.push_back(r.flops);
    std::nth_element(flops.begin(), flops.begin() + flops.size() / 2,
                     flops.end());
    const double median = flops[flops.size() / 2];
    std::vector<const SweepRow*> cheap;
    for (const SweepRow& r : rows) {
      if (r.flops < median) cheap.push_back(&r);
    }
    if (cheap.empty()) cheap.push_back(&rows.front());
    const SweepRow& want = *cheap[rng.next_below(cheap.size())];
    const SweepKey& k = want.key;
    const SweepRow got = driver.get(k.net, k.layer, want.desc, k.algo,
                                    k.vlen_bits, k.l2_bytes, k.lanes, k.attach);
    EXPECT_TRUE(bit_identical(got, want))
        << k.net << " L" << k.layer << " " << to_string(k.algo) << " vlen "
        << k.vlen_bits << " l2 " << k.l2_bytes << " lanes " << k.lanes << " "
        << to_string(k.attach) << ": " << got.cycles << " vs " << want.cycles;
  }
}

TEST_F(SweepTest, GridDefinitionsMatchPapers) {
  EXPECT_EQ(paper2_vlens().size(), 4u);
  EXPECT_EQ(paper2_l2_sizes().size(), 4u);
  EXPECT_EQ(paper2_vlens().front(), 512u);
  EXPECT_EQ(paper2_vlens().back(), 4096u);
  EXPECT_EQ(paper1_vlens().back(), 16384u);
  EXPECT_EQ(paper1_l2_sizes().back(), 256ull << 20);
}

// ----------------------------------------------------------- area ----------

TEST(AreaModel, VpuFractionsMatchPaper) {
  const AreaModel m;
  EXPECT_NEAR(m.vpu_fraction(512), 0.28, 0.01);
  EXPECT_NEAR(m.vpu_fraction(1024), 0.43, 0.01);
  EXPECT_NEAR(m.vpu_fraction(2048), 0.61, 0.01);
  EXPECT_NEAR(m.vpu_fraction(4096), 0.757, 0.01);
}

TEST(AreaModel, ParetoOptimalPointScale) {
  // The paper's Pareto-optimal configuration (2048-bit, 1 MB) is 2.35 mm^2.
  const AreaModel m;
  EXPECT_NEAR(m.chip_mm2(2048, 1u << 20), 2.35, 0.1);
}

TEST(AreaModel, Monotonicity) {
  const AreaModel m;
  EXPECT_LT(m.core_tile_mm2(512), m.core_tile_mm2(4096));
  EXPECT_LT(m.l2_mm2(1u << 20), m.l2_mm2(64u << 20));
  EXPECT_LT(m.chip_mm2(512, 1u << 20, 1), m.chip_mm2(512, 1u << 20, 4));
}

TEST(AreaModel, CacheDominatesAtLargeSizes) {
  // Paper II: "the cache size has a more significant impact on the total area"
  const AreaModel m;
  EXPECT_GT(m.l2_mm2(64u << 20), m.core_tile_mm2(4096));
}

// -------------------------------------------------------- serving ----------

TEST_F(SweepTest, ServingFeasibilityRules) {
  EXPECT_TRUE((ServingPoint{4, 512, 4u << 20, 4}).feasible());
  EXPECT_FALSE((ServingPoint{4, 512, 4u << 20, 8}).feasible());   // > cores
  EXPECT_FALSE((ServingPoint{4, 512, 2u << 20, 4}).feasible());   // slice < 1MB
  EXPECT_TRUE((ServingPoint{64, 4096, 256u << 20, 64}).feasible());
  EXPECT_FALSE((ServingPoint{1, 512, 1u << 20, 0}).feasible());
}

TEST_F(SweepTest, ServingThroughputScalesWithInstances) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  ServingSimulator sim(&driver);
  const Network net = tiny_net();
  const ServingEval one =
      sim.evaluate(net, ServingPoint{4, 512, 16u << 20, 1}, Algo::kGemm3);
  const ServingEval four =
      sim.evaluate(net, ServingPoint{4, 512, 16u << 20, 4}, Algo::kGemm3);
  // Four instances with a quarter of the cache each: throughput rises but
  // sublinearly (per-instance latency can only get worse with less cache).
  EXPECT_GT(four.images_per_cycle, one.images_per_cycle);
  EXPECT_LE(four.images_per_cycle, 4.0 * one.images_per_cycle + 1e-12);
  EXPECT_GE(four.cycles_per_image, one.cycles_per_image - 1e-9);
}

TEST_F(SweepTest, ServingOptimalBeatsFixedAlgo) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  ServingSimulator sim(&driver);
  const Network net = tiny_net();
  const ServingPoint p{1, 512, 1u << 20, 1};
  const double opt = sim.evaluate(net, p, std::nullopt).cycles_per_image;
  for (Algo a : kAllAlgos) {
    EXPECT_LE(opt, sim.evaluate(net, p, a).cycles_per_image + 1e-9);
  }
}

TEST_F(SweepTest, ServingGridMatchesPerPointEvaluation) {
  const Network net = tiny_net();
  ResultsDb db(path_);
  SweepDriver driver(&db);
  ServingSimulator sim(&driver);
  const auto grid = sim.grid(net, Algo::kGemm3);
  ASSERT_FALSE(grid.empty());
  // The parallel grid must equal a serial re-evaluation of each point, in the
  // serial nested-loop order, bit for bit.
  ResultsDb db2((dir_ / "serial_grid.csv").string());
  SweepDriver driver2(&db2);
  ServingSimulator sim2(&driver2);
  std::size_t idx = 0;
  const int core_counts[] = {1, 4, 16, 64};
  const std::uint64_t l2_sizes[] = {1ull << 20, 4ull << 20, 16ull << 20,
                                    64ull << 20, 256ull << 20};
  for (int cores : core_counts) {
    for (std::uint32_t vlen : paper2_vlens()) {
      for (std::uint64_t l2 : l2_sizes) {
        for (int instances : core_counts) {
          ServingPoint p{cores, vlen, l2, instances};
          if (!p.feasible()) continue;
          ASSERT_LT(idx, grid.size());
          const ServingEval ref = sim2.evaluate(net, p, Algo::kGemm3);
          EXPECT_EQ(grid[idx].cycles_per_image, ref.cycles_per_image);
          EXPECT_EQ(grid[idx].images_per_cycle, ref.images_per_cycle);
          EXPECT_EQ(grid[idx].area_mm2, ref.area_mm2);
          EXPECT_EQ(grid[idx].point.instances, p.instances);
          ++idx;
        }
      }
    }
  }
  EXPECT_EQ(idx, grid.size());
}

TEST_F(SweepTest, ServingRejectsInfeasible) {
  ResultsDb db(path_);
  SweepDriver driver(&db);
  ServingSimulator sim(&driver);
  EXPECT_THROW(
      sim.evaluate(tiny_net(), ServingPoint{1, 512, 1u << 20, 2}, std::nullopt),
      std::invalid_argument);
}

// ----------------------------------------------- selectors / ConvEngine ----

TEST(HeuristicSelector, AlwaysApplicable) {
  HeuristicSelector sel;
  const ConvLayerDesc shapes[] = {
      {3, 608, 608, 32, 3, 3, 1, 1}, {512, 14, 14, 512, 3, 3, 1, 1},
      {64, 304, 304, 32, 1, 1, 1, 0}, {32, 608, 608, 64, 3, 3, 2, 1},
      {4, 16, 16, 4, 5, 5, 1, 2}};
  for (const auto& d : shapes) {
    for (std::uint32_t vlen : {512u, 4096u}) {
      EXPECT_TRUE(algo_applicable(sel.select(d, vlen, 1u << 20), d))
          << d.to_string();
    }
  }
}

TEST(HeuristicSelector, MatchesHeadlineRules) {
  HeuristicSelector sel;
  // Layer 1 of YOLOv3: high resolution, 3 input channels -> Direct.
  EXPECT_EQ(sel.select(ConvLayerDesc{3, 608, 608, 32, 3, 3, 1, 1}, 512,
                       1u << 20),
            Algo::kDirect);
  // Mid 3x3 stride-1 layer -> Winograd.
  EXPECT_EQ(sel.select(ConvLayerDesc{256, 28, 28, 512, 3, 3, 1, 1}, 512,
                       1u << 20),
            Algo::kWinograd);
  // Skinny 1x1 with many channels -> blocked GEMM.
  EXPECT_EQ(sel.select(ConvLayerDesc{512, 14, 14, 512, 1, 1, 1, 0}, 512,
                       1u << 20),
            Algo::kGemm6);
}

TEST(ConvEngine, RunAndEstimate) {
  ConvEngine engine(VpuConfig{512, 8}, 1u << 20);
  const ConvLayerDesc d{3, 16, 16, 8, 3, 3, 1, 1};
  Rng rng(1);
  Tensor in(3, 16, 16);
  in.fill_random(rng);
  std::vector<float> w(d.weight_elems());
  fill_uniform(rng, w.data(), w.size(), -1, 1);
  const Tensor auto_out = engine.run(d, in, w);
  const Tensor explicit_out = engine.run(d, in, w, engine.choose(d));
  EXPECT_FLOAT_EQ(max_abs_diff(auto_out, explicit_out), 0.0f);
  const TimingStats t = engine.estimate(d, Algo::kGemm3);
  EXPECT_GT(t.cycles, 0.0);
  // choose() is the HeuristicSelector: YOLOv3's first layer goes Direct.
  EXPECT_EQ(engine.choose(ConvLayerDesc{3, 608, 608, 32, 3, 3, 1, 1}),
            Algo::kDirect);
}

}  // namespace
}  // namespace vlacnn
