// Tests for the set-associative cache model and the two-level hierarchy.
#include <gtest/gtest.h>

#include <list>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "memsim/cache.h"
#include "memsim/memory_system.h"

namespace vlacnn {
namespace {

CacheConfig small_cache(std::uint64_t size = 1024, std::uint32_t ways = 2) {
  return CacheConfig{size, ways, 64, 4};
}

TEST(Cache, ConfigArithmetic) {
  CacheConfig c{1u << 20, 8, 64, 20};
  EXPECT_EQ(c.num_lines(), (1u << 20) / 64);
  EXPECT_EQ(c.num_sets(), (1u << 20) / 64 / 8);
}

TEST(Cache, RejectsNonPow2Sets) {
  // 3 ways of 64B lines in 1024 bytes -> not divisible cleanly.
  EXPECT_THROW(Cache(CacheConfig{1000, 2, 64, 1}), std::invalid_argument);
  // Zero ways or zero-byte lines: rejected before either is used as a
  // divisor (which would raise SIGFPE).
  EXPECT_THROW(Cache(CacheConfig{1024, 0, 64, 1}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{1024, 2, 0, 1}), std::invalid_argument);
}

TEST(Cache, ColdMissesThenHits) {
  Cache c(small_cache());
  EXPECT_FALSE(c.probe(0, false).hit);
  EXPECT_TRUE(c.probe(0, false).hit);
  EXPECT_EQ(c.accesses(), 2u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionOrder) {
  // 2-way cache: lines mapping to the same set evict least-recently-used.
  Cache c(small_cache(1024, 2));  // 8 sets
  const std::uint64_t a = 0, b = 8, d = 16;  // all map to set 0
  c.probe(a, false);
  c.probe(b, false);
  c.probe(a, false);       // a is now MRU
  c.probe(d, false);       // evicts b (LRU)
  EXPECT_TRUE(c.probe(a, false).hit);
  EXPECT_FALSE(c.probe(b, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(small_cache(1024, 2));
  c.probe(0, true);   // dirty
  c.probe(8, false);
  ProbeResult r = c.probe(16, false);  // evicts line 0 (dirty)
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache c(small_cache(1024, 2));
  c.probe(0, false);
  c.probe(8, false);
  EXPECT_FALSE(c.probe(16, false).writeback);
}

TEST(Cache, DirtyBitSurvivesMoveToFront) {
  Cache c(small_cache(1024, 2));
  c.probe(0, true);    // dirty
  c.probe(8, false);
  c.probe(0, false);   // hit, move to front, still dirty
  c.probe(16, false);  // evicts 8 (clean)
  ProbeResult r = c.probe(24, false);  // evicts 0 (dirty)
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, StreamLargerThanCacheAllMisses) {
  Cache c(small_cache(1024, 2));  // 16 lines
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_FALSE(c.probe(i, false).hit);
  // Second pass still misses: stream exceeded capacity.
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_FALSE(c.probe(i, false).hit);
  EXPECT_DOUBLE_EQ(c.miss_rate(), 1.0);
}

TEST(Cache, WorkingSetFittingIsAllHitsAfterWarmup) {
  Cache c(small_cache(1024, 2));  // 16 lines
  for (std::uint64_t i = 0; i < 16; ++i) c.probe(i, false);
  const std::uint64_t misses_before = c.misses();
  for (int rep = 0; rep < 10; ++rep) {
    for (std::uint64_t i = 0; i < 16; ++i) EXPECT_TRUE(c.probe(i, false).hit);
  }
  EXPECT_EQ(c.misses(), misses_before);
}

TEST(Cache, ResetClearsContentsAndStats) {
  Cache c(small_cache());
  c.probe(1, true);
  c.reset();
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.probe(1, false).hit);
}

// A deliberately naive LRU: one list of (line, dirty) per set, front = most
// recently used, back = the victim.
class ListLru {
 public:
  ListLru(std::uint32_t ways, std::uint64_t sets) : ways_(ways), sets_(sets) {}

  ProbeResult probe(std::uint64_t line, bool write) {
    ++accesses_;
    std::list<std::pair<std::uint64_t, bool>>& set = sets_[line % sets_.size()];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == line) {
        const bool dirty = it->second || write;
        set.erase(it);
        set.emplace_front(line, dirty);
        return {true, false, 0};
      }
    }
    ++misses_;
    ProbeResult r;
    if (set.size() == ways_) {
      if (set.back().second) r = {false, true, set.back().first};
      set.pop_back();
    }
    set.emplace_front(line, write);
    return r;
  }

  void reset() {
    for (auto& set : sets_) set.clear();
    accesses_ = misses_ = 0;
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint32_t ways_;
  std::vector<std::list<std::pair<std::uint64_t, bool>>> sets_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

TEST(Cache, MatchesListPerSetLruOnSeededStreams) {
  // Same seeded (line, write) stream into Cache and the list model, over a
  // line universe 3x the capacity (hits, misses and dirty evictions all
  // occur), ~30% writes and one reset midway.
  constexpr int kProbes = 20000;
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u, 16u}) {
    for (const std::uint64_t sets : {1ull, 8ull, 64ull}) {
      SCOPED_TRACE(testing::Message() << ways << " ways x " << sets << " sets");
      Cache cache(CacheConfig{sets * ways * 64, ways, 64, 1});
      ListLru model(ways, sets);
      Rng rng(ways * 1000 + sets);
      const std::uint64_t universe = 3 * sets * ways;
      int hits = 0, writebacks = 0;
      for (int i = 0; i < kProbes; ++i) {
        if (i == kProbes / 2) {
          cache.reset();
          model.reset();
        }
        const std::uint64_t line = rng.next_below(universe);
        const bool write = rng.next_below(10) < 3;
        const ProbeResult got = cache.probe(line, write);
        const ProbeResult want = model.probe(line, write);
        ASSERT_EQ(got.hit, want.hit) << "probe " << i << " line " << line;
        ASSERT_EQ(got.writeback, want.writeback) << "probe " << i;
        ASSERT_EQ(got.victim_line, want.victim_line) << "probe " << i;
        hits += got.hit;
        writebacks += got.writeback;
      }
      EXPECT_EQ(cache.accesses(), model.accesses());
      EXPECT_EQ(cache.misses(), model.misses());
      // The stream exercised every outcome.
      EXPECT_GT(hits, 0);
      EXPECT_GT(writebacks, 0);
      EXPECT_GT(cache.misses(), 0u);
    }
  }
}

// ------------------------------------------------------ MemorySystem -------

MemConfig tiny_mem() {
  MemConfig m;
  m.l1 = {1024, 2, 64, 4};
  m.l2 = {4096, 4, 64, 20};
  m.vbuf = {256, 2, 64, 1};
  return m;
}

TEST(MemorySystem, IntegratedRoutesThroughL1) {
  MemConfig cfg = tiny_mem();
  cfg.attach = VpuAttach::kIntegratedL1;
  MemorySystem m(cfg);
  AccessResult r = m.vector_access(0, 64, false);
  EXPECT_EQ(r.lines, 1u);
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(m.l1().accesses(), 1u);
  // Hit in L1 next time: no L2 traffic.
  const std::uint64_t l2_before = m.l2().accesses();
  r = m.vector_access(0, 64, false);
  EXPECT_EQ(r.l1_misses, 0u);
  EXPECT_EQ(m.l2().accesses(), l2_before);
}

TEST(MemorySystem, DecoupledBypassesL1) {
  MemConfig cfg = tiny_mem();
  cfg.attach = VpuAttach::kDecoupledL2;
  MemorySystem m(cfg);
  m.vector_access(0, 256, false);
  EXPECT_EQ(m.l1().accesses(), 0u);
  EXPECT_GT(m.vbuf().accesses(), 0u);
  EXPECT_GT(m.l2().accesses(), 0u);
}

TEST(MemorySystem, ScalarAlwaysViaL1) {
  MemConfig cfg = tiny_mem();
  cfg.attach = VpuAttach::kDecoupledL2;
  MemorySystem m(cfg);
  m.scalar_access(0, 4, false);
  EXPECT_EQ(m.l1().accesses(), 1u);
}

TEST(MemorySystem, MultiLineAccessCountsAllLines) {
  MemorySystem m(tiny_mem());
  AccessResult r = m.vector_access(32, 128, false);  // spans 3 lines
  EXPECT_EQ(r.lines, 3u);
}

TEST(MemorySystem, ZeroByteAccessIsNoop) {
  MemorySystem m(tiny_mem());
  AccessResult r = m.vector_access(0, 0, false);
  EXPECT_EQ(r.lines, 0u);
  EXPECT_EQ(m.l1().accesses(), 0u);
}

TEST(MemorySystem, MemBytesTracksFillsAndWritebacks) {
  MemorySystem m(tiny_mem());
  // Write-stream far beyond both cache capacities: every line is filled once
  // and eventually written back.
  for (std::uint64_t a = 0; a < 64 * 1024; a += 64) {
    m.vector_access(a, 64, true);
  }
  EXPECT_GT(m.mem_bytes_total(), 64ull * 1024);  // fills + some writebacks
}

TEST(MemorySystem, WriteAllocateFillChargesExactlyOneLine) {
  // A cold write allocates the line: one fill from DRAM, no writeback yet.
  MemorySystem m(tiny_mem());
  const AccessResult r = m.vector_access(0, 64, true);
  EXPECT_EQ(r.lines, 1u);
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.mem_bytes, 64u);
  EXPECT_EQ(m.mem_bytes_total(), 64u);
}

TEST(MemorySystem, DirtyL1VictimAbsorbedByL2ThenWrittenBackOnL2Eviction) {
  // tiny_mem: L1 = 16 lines / 8 sets (set = line % 8), L2 = 64 lines /
  // 16 sets 4-way (set = line % 16). Walks a dirty line through both
  // eviction levels and checks mem_bytes == fills + writebacks exactly.
  MemorySystem m(tiny_mem());
  // Dirty line 0 in L1 (and fill it into L2, clean).
  EXPECT_EQ(m.vector_access(0, 64, true).mem_bytes, 64u);
  // Fill L1 set 0 (line 8 maps to L1 set 0 but L2 set 8).
  EXPECT_EQ(m.vector_access(8 * 64, 64, false).mem_bytes, 64u);
  // Line 16 evicts dirty line 0 from L1. The victim lands in L2 at its own
  // address — line 0 is resident there, so the writeback costs no DRAM
  // traffic; only line 16's own fill is charged.
  EXPECT_EQ(m.vector_access(16 * 64, 64, false).mem_bytes, 64u);
  // L2 set 0 now holds {0 (dirty, MRU after the writeback), 16}. Fill the
  // remaining ways...
  EXPECT_EQ(m.vector_access(32 * 64, 64, false).mem_bytes, 64u);
  EXPECT_EQ(m.vector_access(48 * 64, 64, false).mem_bytes, 64u);
  // ...evict the clean LRU (line 16) first: still just the fill...
  EXPECT_EQ(m.vector_access(64 * 64, 64, false).mem_bytes, 64u);
  // ...and finally evict dirty line 0 from L2: fill + DRAM writeback.
  const AccessResult wb = m.vector_access(80 * 64, 64, false);
  EXPECT_EQ(wb.l2_misses, 1u);
  EXPECT_EQ(wb.mem_bytes, 128u);
  // Total is the exact sum of per-access charges (fills + writebacks).
  EXPECT_EQ(m.mem_bytes_total(), 6u * 64u + 128u);
}

TEST(MemorySystem, ConstructorRejectsNonPositiveBandwidth) {
  // The timing model divides by this peak bandwidth; zero/negative would
  // silently make every bandwidth stall inf instead of erroring out.
  MemConfig cfg = tiny_mem();
  cfg.mem_bytes_per_cycle = 0;
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
  cfg.mem_bytes_per_cycle = -6.4;
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
  cfg.mem_bytes_per_cycle = 6.4;
  EXPECT_NO_THROW(MemorySystem{cfg});
}

TEST(MemorySystem, ConstructorRejectsLineSizeMismatch) {
  // access_via indexes every level with L2's line size; a first level with
  // another line size would silently model a different cache.
  MemConfig cfg = tiny_mem();
  cfg.l1 = {1024, 2, 32, 4};
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
  cfg = tiny_mem();
  cfg.vbuf = {256, 2, 128, 1};
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
  cfg = tiny_mem();
  cfg.l2 = {8192, 4, 128, 20};
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
  EXPECT_NO_THROW(MemorySystem{tiny_mem()});
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemConfig cfg = tiny_mem();  // L1 16 lines, L2 64 lines
  MemorySystem m(cfg);
  // Touch 32 lines: all fit in L2, half evicted from L1.
  for (std::uint64_t a = 0; a < 32 * 64; a += 64) m.vector_access(a, 64, false);
  // Line 0 is gone from L1 but should hit in L2 (no new memory traffic).
  const std::uint64_t mem_before = m.mem_bytes_total();
  AccessResult r = m.vector_access(0, 64, false);
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l2_misses, 0u);
  EXPECT_EQ(m.mem_bytes_total(), mem_before);
}

TEST(MemorySystem, PrefetchWarmsCache) {
  MemorySystem m(tiny_mem());
  m.prefetch(0, 64);
  AccessResult r = m.vector_access(0, 64, false);
  EXPECT_EQ(r.l1_misses, 0u);
}

TEST(MemorySystem, ResetRestoresColdState) {
  MemorySystem m(tiny_mem());
  m.vector_access(0, 64, false);
  m.reset();
  EXPECT_EQ(m.l1().accesses(), 0u);
  EXPECT_EQ(m.mem_bytes_total(), 0u);
  EXPECT_EQ(m.vector_access(0, 64, false).l1_misses, 1u);
}

}  // namespace
}  // namespace vlacnn
