// Tests for vsetvl semantics, the timing model's cycle accounting, and the
// functional/trace engine pair (including instruction-stream equivalence).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algos/registry.h"
#include "vpu/functional_engine.h"
#include "vpu/timing_model.h"
#include "vpu/trace_engine.h"
#include "vpu/vpu_config.h"

namespace vlacnn {
namespace {

VpuConfig vpu512() { return VpuConfig{512, 8, VpuAttach::kIntegratedL1}; }

// ------------------------------------------------------------ vsetvl -------

TEST(VpuConfig, MvlFromVlen) {
  EXPECT_EQ((VpuConfig{512, 8}).mvl(), 16u);
  EXPECT_EQ((VpuConfig{16384, 8}).mvl(), 512u);
}

TEST(VpuConfig, SetvlGrantsMinOfRequestAndMvl) {
  VpuConfig v{1024, 8};
  EXPECT_EQ(v.setvl(5), 5u);
  EXPECT_EQ(v.setvl(32), 32u);
  EXPECT_EQ(v.setvl(100), 32u);
  EXPECT_EQ(v.setvl(0), 0u);
}

TEST(VpuConfig, ValidateRejectsBadConfigs) {
  EXPECT_THROW(validate(VpuConfig{500, 8}), std::invalid_argument);   // !pow2
  EXPECT_THROW(validate(VpuConfig{64, 8}), std::invalid_argument);    // < 128
  EXPECT_THROW(validate(VpuConfig{32768, 8}), std::invalid_argument); // > max
  EXPECT_THROW(validate(VpuConfig{512, 0}), std::invalid_argument);
  EXPECT_NO_THROW(validate(VpuConfig{512, 8}));
}

// ------------------------------------------------------- TimingModel -------

TEST(TimingModel, VecArithCycleFormula) {
  TimingConfig tc;
  tc.vec_startup_cycles = 10;
  TimingModel t(vpu512(), nullptr, tc);
  t.vec_arith(16);  // chime = ceil(16/8) = 2
  EXPECT_DOUBLE_EQ(t.stats().cycles, 12.0);
  EXPECT_DOUBLE_EQ(t.stats().vec_instructions, 1.0);
  EXPECT_DOUBLE_EQ(t.stats().vec_elems, 16.0);
  EXPECT_DOUBLE_EQ(t.stats().flops, 32.0);  // 2 flops/elem default
}

TEST(TimingModel, MoreLanesFewerCycles) {
  TimingConfig tc;
  double prev = 1e30;
  for (std::uint32_t lanes : {2u, 4u, 8u}) {
    TimingModel t(VpuConfig{8192, lanes}, nullptr, tc);
    t.vec_arith(256);
    EXPECT_LT(t.stats().cycles, prev);
    prev = t.stats().cycles;
  }
}

TEST(TimingModel, LongerVectorsAmortiseStartup) {
  // Cycles per element must drop as VL grows (same total elements).
  TimingConfig tc;
  double prev = 1e30;
  for (std::uint32_t vlen : {512u, 2048u, 8192u}) {
    TimingModel t(VpuConfig{vlen, 8}, nullptr, tc);
    const std::uint64_t vl = vlen / 32;
    const std::uint64_t total = 4096;
    for (std::uint64_t i = 0; i < total; i += vl) t.vec_arith(vl);
    EXPECT_LT(t.stats().cycles, prev);
    prev = t.stats().cycles;
  }
}

TEST(TimingModel, ZeroVlIsFree) {
  TimingModel t(vpu512(), nullptr, {});
  t.vec_arith(0);
  t.vec_mem(0, 0, 4, MemPattern::kUnit, false);
  EXPECT_DOUBLE_EQ(t.stats().cycles, 0.0);
}

TEST(TimingModel, ScaleMultipliesIncrements) {
  TimingModel t(vpu512(), nullptr, {});
  t.vec_arith(16);
  const double one = t.stats().cycles;
  t.push_scale(10.0);
  t.vec_arith(16);
  t.pop_scale();
  EXPECT_DOUBLE_EQ(t.stats().cycles, 11.0 * one);
  EXPECT_DOUBLE_EQ(t.stats().vec_instructions, 11.0);
}

TEST(TimingModel, ScaleStackNests) {
  TimingModel t(vpu512(), nullptr, {});
  t.push_scale(2.0);
  t.push_scale(3.0);
  EXPECT_DOUBLE_EQ(t.current_scale(), 6.0);
  t.pop_scale();
  EXPECT_DOUBLE_EQ(t.current_scale(), 2.0);
  t.pop_scale();
  EXPECT_DOUBLE_EQ(t.current_scale(), 1.0);
  EXPECT_THROW(t.pop_scale(), std::logic_error);
  EXPECT_THROW(t.push_scale(0.0), std::invalid_argument);
  // A non-finite factor or product would make every scaled increment inf or
  // NaN (inf * 0 is NaN), and the stall skip relies on scale * 0 == +-0.0.
  EXPECT_THROW(t.push_scale(std::nan("")), std::invalid_argument);
  EXPECT_THROW(t.push_scale(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  t.push_scale(1e200);
  EXPECT_THROW(t.push_scale(1e200), std::invalid_argument);
  EXPECT_DOUBLE_EQ(t.current_scale(), 1e200);  // the rejected push left it
  t.pop_scale();
  EXPECT_DOUBLE_EQ(t.current_scale(), 1.0);
  t.vec_arith(16);
  EXPECT_TRUE(std::isfinite(t.stats().cycles));
}

TEST(TimingModel, ScaledRegionPopsOnExceptionalExit) {
  // The RAII guard must restore the scale even when the region body throws —
  // the manual push/pop pairs it replaced leaked the scale on that path.
  TimingModel t(vpu512(), nullptr, {});
  try {
    const ScaledRegion scaled(&t, 8.0);
    EXPECT_DOUBLE_EQ(t.current_scale(), 8.0);
    throw std::runtime_error("mid-region failure");
  } catch (const std::runtime_error&) {
  }
  EXPECT_DOUBLE_EQ(t.current_scale(), 1.0);
  t.vec_arith(16);
  EXPECT_DOUBLE_EQ(t.stats().vec_instructions, 1.0);  // unscaled again
  // Null-model guard is inert (the FunctionalEngine-without-timing case).
  { const ScaledRegion inert(nullptr, 123.0); }
}

TEST(TimingModel, ConstructorRejectsNonPositiveDivisors) {
  // Every divisor-bearing TimingConfig field must be positive: they all sit
  // on the right of a division in the cycle model, and zero/negative values
  // would silently produce inf/NaN cycles instead of an error.
  auto with = [](auto mutate) {
    TimingConfig tc;
    mutate(tc);
    return tc;
  };
  EXPECT_THROW(TimingModel(vpu512(), nullptr,
                           with([](TimingConfig& c) { c.scalar_ipc = 0; })),
               std::invalid_argument);
  EXPECT_THROW(
      TimingModel(vpu512(), nullptr,
                  with([](TimingConfig& c) { c.strided_lane_divisor = -1; })),
      std::invalid_argument);
  EXPECT_THROW(
      TimingModel(vpu512(), nullptr,
                  with([](TimingConfig& c) { c.indexed_lane_divisor = 0; })),
      std::invalid_argument);
  EXPECT_THROW(TimingModel(vpu512(), nullptr,
                           with([](TimingConfig& c) { c.miss_overlap = 0; })),
               std::invalid_argument);
  EXPECT_THROW(
      TimingModel(vpu512(), nullptr,
                  with([](TimingConfig& c) { c.cache_bytes_per_cycle = 0; })),
      std::invalid_argument);
  EXPECT_NO_THROW(TimingModel(vpu512(), nullptr, TimingConfig{}));
}

TEST(TimingModel, MissStallsIncreaseCycles) {
  MemConfig mc;
  mc.l2.size_bytes = 1u << 20;
  MemorySystem mem_cold(mc);
  TimingModel cold(vpu512(), &mem_cold, {});
  cold.vec_mem(0, 16, 4, MemPattern::kUnit, false);  // cold: misses to DRAM
  MemorySystem mem_warm(mc);
  TimingModel warm(vpu512(), &mem_warm, {});
  mem_warm.vector_access(0, 64, false);              // pre-warm
  warm.vec_mem(0, 16, 4, MemPattern::kUnit, false);
  EXPECT_GT(cold.stats().cycles, warm.stats().cycles);
  EXPECT_GT(cold.stats().mem_stall_cycles, 0.0);
  EXPECT_DOUBLE_EQ(warm.stats().mem_stall_cycles, 0.0);
}

TEST(TimingModel, StridedCostsMoreThanUnit) {
  MemConfig mc;
  MemorySystem m1(mc), m2(mc);
  TimingModel unit(vpu512(), &m1, {});
  TimingModel strided(vpu512(), &m2, {});
  unit.vec_mem(0, 16, 4, MemPattern::kUnit, false);
  strided.vec_mem(0, 16, 256, MemPattern::kStrided, false);
  EXPECT_GT(strided.stats().cycles, unit.stats().cycles);
}

TEST(TimingModel, PrefetchDroppedByDefault) {
  MemConfig mc;
  MemorySystem mem(mc);
  TimingModel t(vpu512(), &mem, {});  // sw_prefetch_effective = false
  t.prefetch(0, 4096);
  EXPECT_DOUBLE_EQ(t.stats().cycles, 0.0);
  EXPECT_EQ(mem.l1().accesses(), 0u);
}

TEST(TimingModel, EffectivePrefetchWarmsCacheCheaply) {
  MemConfig mc;
  MemorySystem mem(mc);
  TimingConfig tc;
  tc.sw_prefetch_effective = true;
  TimingModel t(vpu512(), &mem, tc);
  t.prefetch(0, 64);
  const double prefetch_cycles = t.stats().cycles;
  t.vec_mem(0, 16, 4, MemPattern::kUnit, false);
  EXPECT_DOUBLE_EQ(t.stats().mem_stall_cycles, 0.0);  // demand access hits
  EXPECT_LE(prefetch_cycles, 2.0);
}

TEST(TimingModel, ScalarOpsUseIssueWidth) {
  TimingConfig tc;
  tc.scalar_ipc = 2.0;
  TimingModel t(vpu512(), nullptr, tc);
  t.scalar_ops(10);
  EXPECT_DOUBLE_EQ(t.stats().scalar_cycles, 5.0);
}

TEST(TimingModel, AvgVlAndMissRateDerivedStats) {
  TimingModel t(vpu512(), nullptr, {});
  t.vec_arith(16);
  t.vec_arith(8);
  EXPECT_DOUBLE_EQ(t.stats().avg_vl(), 12.0);
  EXPECT_DOUBLE_EQ(t.stats().l2_miss_rate(), 0.0);  // no accesses: 0 not NaN
}

TEST(TimingModel, BandwidthBoundsStreamingStalls) {
  // A DRAM-streaming access pattern must stall at least bytes/BW cycles.
  MemConfig mc;
  mc.l2.size_bytes = 1u << 20;
  mc.mem_bytes_per_cycle = 6.4;
  MemorySystem mem(mc);
  TimingModel t(vpu512(), &mem, {});
  const std::uint64_t total_bytes = 8u << 20;  // far beyond L2
  for (std::uint64_t a = 0; a < total_bytes; a += 64) {
    t.vec_mem(a, 16, 4, MemPattern::kUnit, false);
  }
  EXPECT_GE(t.stats().mem_stall_cycles, total_bytes / 6.4 * 0.99);
}

// ------------------------------------------- engines: numeric behaviour ----

TEST(FunctionalEngine, LoadStoreRoundTrip) {
  FunctionalEngine eng(vpu512());
  std::vector<float> src{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> dst(8, 0.0f);
  BufView s = eng.bind(src.data(), src.size());
  BufView d = eng.bind(dst.data(), dst.size());
  auto v = eng.vload(s, 0, 8);
  eng.vstore(v, d, 0);
  EXPECT_EQ(dst, src);
}

TEST(FunctionalEngine, StridedLoadGathersEveryOther) {
  FunctionalEngine eng(vpu512());
  std::vector<float> src{0, 1, 2, 3, 4, 5, 6, 7};
  BufView s = eng.bind(src.data(), src.size());
  auto v = eng.vload_strided(s, 1, 2, 3);  // elements 1, 3, 5
  std::vector<float> dst(3);
  eng.vstore(v, eng.bind(dst.data(), 3), 0);
  EXPECT_EQ(dst, (std::vector<float>{1, 3, 5}));
}

TEST(FunctionalEngine, StridedStoreScatters) {
  FunctionalEngine eng(vpu512());
  std::vector<float> dst(8, -1.0f);
  auto v = eng.vbroadcast(9.0f, 3);
  eng.vstore_strided(v, eng.bind(dst.data(), 8), 1, 3);  // slots 1, 4, 7
  EXPECT_EQ(dst, (std::vector<float>{-1, 9, -1, -1, 9, -1, -1, 9}));
}

TEST(FunctionalEngine, FmaAndReduce) {
  FunctionalEngine eng(vpu512());
  auto a = eng.vbroadcast(2.0f, 4);
  auto b = eng.vbroadcast(3.0f, 4);
  auto acc = eng.vbroadcast(1.0f, 4);
  eng.vfma_vv(acc, a, b);       // 1 + 6 = 7 each
  eng.vfma_vs(acc, 10.0f, b);   // 7 + 30 = 37 each
  EXPECT_FLOAT_EQ(eng.vredsum(acc), 4 * 37.0f);
}

TEST(FunctionalEngine, ElementwiseOps) {
  FunctionalEngine eng(vpu512());
  auto a = eng.vbroadcast(4.0f, 2);
  auto b = eng.vbroadcast(3.0f, 2);
  eng.vsub_vv(a, b);   // 1
  eng.vmul_vs(a, 5.0f);  // 5
  eng.vadd_vs(a, -8.0f); // -3
  eng.vmax_vs(a, -1.0f); // -1
  EXPECT_FLOAT_EQ(eng.vredsum(a), -2.0f);
}

TEST(FunctionalEngine, LeakyNegativeSlope) {
  FunctionalEngine eng(vpu512());
  std::vector<float> src{-10.0f, 10.0f};
  auto v = eng.vload(eng.bind(src.data(), 2), 0, 2);
  eng.vleaky(v, 0.1f);
  std::vector<float> dst(2);
  eng.vstore(v, eng.bind(dst.data(), 2), 0);
  EXPECT_FLOAT_EQ(dst[0], -1.0f);
  EXPECT_FLOAT_EQ(dst[1], 10.0f);
}

TEST(FunctionalEngine, GatherByIndex) {
  FunctionalEngine eng(vpu512());
  std::vector<float> src{10, 11, 12, 13};
  std::uint32_t idx[3] = {3, 0, 2};
  auto v = eng.vgather(eng.bind(src.data(), 4), 0, idx, 3);
  std::vector<float> dst(3);
  eng.vstore(v, eng.bind(dst.data(), 3), 0);
  EXPECT_EQ(dst, (std::vector<float>{13, 10, 12}));
}

TEST(FunctionalEngine, ScratchIsZeroInitialised) {
  FunctionalEngine eng(vpu512());
  Scratch s = eng.alloc(16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(eng.scalar_load(s.view, i), 0.0f);
}

// --------------------------- trace/functional stream equivalence -----------

TEST(Engines, IdenticalTimingForIdenticalProgram) {
  // The same short vector program must produce identical cycle counts through
  // both engines when a TimingModel is attached to the functional one.
  auto program = [](auto& eng, BufView a, BufView b) {
    const std::uint64_t n = 40;
    for (std::uint64_t i = 0; i < n;) {
      const std::uint64_t vl = eng.setvl(n - i);
      auto va = eng.vload(a, i, vl);
      auto acc = eng.vbroadcast(0.0f, vl);
      eng.vfma_vs(acc, 2.0f, va);
      eng.vstore(acc, b, i);
      i += vl;
    }
    eng.scalar_ops(7);
  };

  MemConfig mc;
  const VpuConfig vpu = vpu512();

  MemorySystem mem_t(mc);
  TimingModel tm_t(vpu, &mem_t, {});
  TraceEngine trace(vpu, &tm_t);
  BufView ta = trace.bind(nullptr, 64);
  BufView tb = trace.bind(nullptr, 64);
  program(trace, ta, tb);

  MemorySystem mem_f(mc);
  TimingModel tm_f(vpu, &mem_f, {});
  FunctionalEngine func(vpu, &tm_f);
  std::vector<float> fa(64, 1.0f), fb(64, 0.0f);
  program(func, func.bind(fa.data(), 64), func.bind(fb.data(), 64));

  EXPECT_DOUBLE_EQ(tm_t.stats().cycles, tm_f.stats().cycles);
  EXPECT_DOUBLE_EQ(tm_t.stats().vec_instructions,
                   tm_f.stats().vec_instructions);
  EXPECT_DOUBLE_EQ(tm_t.stats().vec_elems, tm_f.stats().vec_elems);
  for (int i = 0; i < 40; ++i) EXPECT_FLOAT_EQ(fb[i], 2.0f);
}

// ------------------------------------------ cycle accounting invariant -----

TEST(TimingModel, BucketsReconcileWithTotalForEveryAlgorithm) {
  // The four attribution buckets must exactly partition `cycles` for every
  // algorithm on a real end-to-end simulation (see the invariant documented
  // on TimingStats). The buckets accumulate in a different order than the
  // total, so the comparison is relative-tolerance, not bitwise.
  const ConvLayerDesc d{16, 16, 16, 16, 3, 3, 1, 1};  // winograd-applicable
  for (Algo a : kAllAlgos) {
    ASSERT_TRUE(algo_applicable(a, d)) << to_string(a);
    for (std::uint32_t vlen : {512u, 2048u}) {
      const SimConfig config = make_sim_config(vlen, 1u << 20);
      const TimingStats s = conv_simulate(a, d, config);
      ASSERT_GT(s.cycles, 0.0) << to_string(a);
      EXPECT_NEAR(s.cycles, s.bucket_sum(), s.cycles * 1e-9)
          << to_string(a) << " @ vlen " << vlen;
    }
  }
}

}  // namespace
}  // namespace vlacnn
