// Two-level memory hierarchy seen by the (scalar core + vector unit).
//
// Two attachment styles are modelled, matching the two micro-architectures in the
// papers:
//   * kIntegratedL1 (Paper II's RVV fork, ARM-SVE): vector accesses go through
//     L1 -> L2 -> memory.
//   * kDecoupledL2 (Paper I's RVV@gem5): the VPU hangs off the L2 with a tiny
//     2 KB vector buffer in front of it; L1 is bypassed for vector traffic.
//
// The hierarchy is non-inclusive and tag-only; dirty evictions are propagated so
// write-back traffic shows up in the memory-bandwidth accounting.
#pragma once

#include <cstdint>

#include "memsim/cache.h"

namespace vlacnn {

/// Where vector memory operations enter the hierarchy.
enum class VpuAttach { kIntegratedL1, kDecoupledL2 };

/// Each attachment's word in grid-point labels, report keys and the sweep
/// cache's attach column, indexed by VpuAttach.
inline constexpr const char* kAttachWords[] = {"int", "dec"};

inline const char* to_string(VpuAttach a) {
  return kAttachWords[static_cast<int>(a)];
}

/// Full hierarchy parameters.
struct MemConfig {
  CacheConfig l1{64u << 10, 4, 64};
  CacheConfig l2{1u << 20, 8, 64};
  /// 2 KB buffer between a decoupled VPU and L2 (Paper I, Section III.A).
  CacheConfig vbuf{2u << 10, 4, 64};
  std::uint32_t l2_latency_cycles = 20;    ///< paid by every first-level miss
  std::uint32_t mem_latency_cycles = 200;  ///< DRAM round-trip at 2 GHz
  double mem_bytes_per_cycle = 6.4;        ///< 12.8 GB/s at 2 GHz (Paper II)
  VpuAttach attach = VpuAttach::kIntegratedL1;
};

/// Aggregate outcome of one (possibly multi-line) access.
struct AccessResult {
  std::uint32_t lines = 0;
  std::uint32_t l1_misses = 0;  ///< misses at the first level probed (L1 or vbuf)
  std::uint32_t l2_misses = 0;  ///< misses that went to memory
  std::uint64_t mem_bytes = 0;  ///< bytes moved to/from DRAM (fills + writebacks)
};

/// The hierarchy itself. Probe-level statistics live in the member caches;
/// scaled, per-experiment statistics are kept by the TimingModel.
class MemorySystem {
 public:
  explicit MemorySystem(const MemConfig& config);

  /// Rolls the per-level probe statistics (accesses, misses, DRAM bytes) into
  /// the global obs counters when metrics are on. Every simulation point owns
  /// a fresh MemorySystem, so the roll-up happens exactly once per point.
  ~MemorySystem();

  /// Access [addr, addr+bytes) as vector traffic (enters at the configured
  /// attachment point).
  AccessResult vector_access(std::uint64_t addr, std::uint64_t bytes,
                             bool write) {
    if (config_.attach == VpuAttach::kIntegratedL1) {
      return access_via(&l1_, addr, bytes, write);
    }
    return access_via(&vbuf_, addr, bytes, write);
  }

  /// Access as scalar-core traffic (always via L1).
  AccessResult scalar_access(std::uint64_t addr, std::uint64_t bytes,
                             bool write) {
    return access_via(&l1_, addr, bytes, write);
  }

  /// Touch a range for software prefetch: same path as a read but the caller's
  /// timing model treats it as non-blocking.
  AccessResult prefetch(std::uint64_t addr, std::uint64_t bytes);

  void reset();

  const MemConfig& config() const { return config_; }
  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  const Cache& vbuf() const { return vbuf_; }
  std::uint64_t mem_bytes_total() const { return mem_bytes_total_; }

 private:
  // Inline with the accessors above, so a one-line first-level hit reached
  // from the timing model makes no call (DESIGN.md §7, memory hot path).
  AccessResult access_via(Cache* first, std::uint64_t addr, std::uint64_t bytes,
                          bool write) {
    AccessResult out;
    if (bytes == 0) return out;
    const std::uint32_t line_bytes = config_.l2.line_bytes;
    const std::uint64_t first_line = addr / line_bytes;
    const std::uint64_t last_line = (addr + bytes - 1) / line_bytes;
    for (std::uint64_t line = first_line; line <= last_line; ++line) {
      ++out.lines;
      bool to_l2 = true;
      ProbeResult p1;
      if (first != nullptr) {
        p1 = first->probe(line, write);
        if (p1.hit) {
          to_l2 = false;
        } else {
          ++out.l1_misses;
        }
      }
      if (to_l2) {
        ProbeResult p2 = l2_.probe(line, first == nullptr ? write : false);
        if (!p2.hit) {
          ++out.l2_misses;
          out.mem_bytes += line_bytes;  // fill from DRAM
        }
        if (p2.writeback) out.mem_bytes += line_bytes;  // dirty victim to DRAM
      }
      // A dirty victim evicted from the first level lands in L2 at the
      // victim's own address (whole-line dirty write: allocate without a DRAM
      // fill).
      if (p1.writeback) {
        ProbeResult wb = l2_.probe(p1.victim_line, true);
        if (wb.writeback) out.mem_bytes += line_bytes;
      }
    }
    // When there is no first-level cache in the path, L2 misses are also the
    // "first level" misses from the VPU's point of view.
    if (first == nullptr) out.l1_misses = out.l2_misses;
    mem_bytes_total_ += out.mem_bytes;
    return out;
  }

  MemConfig config_;
  Cache l1_;
  Cache l2_;
  Cache vbuf_;
  std::uint64_t mem_bytes_total_ = 0;
};

}  // namespace vlacnn
