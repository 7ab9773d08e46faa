// Set-associative cache model with LRU replacement.
//
// This is the capacity/conflict-behaviour half of the gem5 substitute: the VPU
// timing model (src/vpu/timing_model.h) turns the hit/miss outcomes produced here
// into stall cycles. The cache is a tag-only model (no data payloads) probed at
// cache-line granularity, which is what makes trace-driven simulation of full
// convolutional layers affordable.
#pragma once

#include <cstdint>
#include <vector>

namespace vlacnn {

/// Static parameters of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 1u << 20;
  std::uint32_t ways = 8;
  std::uint32_t line_bytes = 64;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / ways; }
};

/// Outcome of a single line probe.
struct ProbeResult {
  bool hit = false;
  bool writeback = false;       ///< a dirty line was evicted by this fill
  std::uint64_t victim_line = 0;  ///< line address of the evicted dirty victim
};

/// One cache level. Tags only; LRU within each set via move-to-front.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Probe one line address (already shifted by line bits). On miss the line is
  /// filled, evicting the LRU way. A hit on the most-recently-used way, the
  /// common case, is decided here inline; the rest of the set is searched
  /// out of line.
  ProbeResult probe(std::uint64_t line_addr, bool write) {
    ++accesses_;
    const std::uint64_t base = (line_addr & set_mask_) * ways_;
    if (tags_[base] == line_addr) {
      dirty_[base] |= static_cast<std::uint8_t>(write);
      return {true, false, 0};
    }
    return probe_past_mru(base, line_addr, write);
  }

  /// Invalidate all contents and zero statistics.
  void reset();

  const CacheConfig& config() const { return config_; }
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const {
    return accesses_ ? static_cast<double>(misses_) / static_cast<double>(accesses_)
                     : 0.0;
  }

 private:
  /// probe() past its MRU check: search ways 1..n-1 of the set starting at
  /// slot `base`, move a hit to the front, or fill a miss over the LRU way.
  ProbeResult probe_past_mru(std::uint64_t base, std::uint64_t line_addr,
                             bool write);

  CacheConfig config_;
  std::uint64_t set_mask_ = 0;
  std::uint32_t ways_ = 0;
  // Per set: `ways_` tag slots ordered most-recent-first, plus dirty bits.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> dirty_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;

  static constexpr std::uint64_t kInvalidTag = ~0ull;
};

}  // namespace vlacnn
