#include "memsim/cache.h"

#include <stdexcept>

namespace vlacnn {

namespace {

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config), ways_(config.ways) {
  // Checked first: both are divisors below.
  if (config.ways == 0 || config.line_bytes == 0) {
    throw std::invalid_argument("cache: ways and line_bytes must be positive");
  }
  if (config.size_bytes % (static_cast<std::uint64_t>(config.line_bytes) * config.ways) != 0) {
    throw std::invalid_argument("cache: size must be a multiple of line*ways");
  }
  const std::uint64_t sets = config.num_sets();
  if (!is_pow2(sets)) throw std::invalid_argument("cache: num_sets must be pow2");
  set_mask_ = sets - 1;
  tags_.assign(sets * ways_, kInvalidTag);
  dirty_.assign(sets * ways_, 0);
}

ProbeResult Cache::probe_past_mru(std::uint64_t base, std::uint64_t line_addr,
                                  bool write) {
  std::uint64_t* tags = &tags_[base];
  std::uint8_t* dirty = &dirty_[base];

  // Search the rest of the set; slot 0 (most recently used) missed in probe.
  for (std::uint32_t w = 1; w < ways_; ++w) {
    if (tags[w] == line_addr) {
      // Move-to-front, carrying the dirty bit.
      std::uint8_t d = static_cast<std::uint8_t>(dirty[w] | (write ? 1 : 0));
      for (std::uint32_t k = w; k > 0; --k) {
        tags[k] = tags[k - 1];
        dirty[k] = dirty[k - 1];
      }
      tags[0] = line_addr;
      dirty[0] = d;
      return {true, false, 0};
    }
  }

  // Miss: evict LRU (last slot), shift, insert at front.
  ++misses_;
  const bool victim_valid = tags[ways_ - 1] != kInvalidTag;
  const bool writeback = victim_valid && dirty[ways_ - 1] != 0;
  const std::uint64_t victim = writeback ? tags[ways_ - 1] : 0;
  for (std::uint32_t k = ways_ - 1; k > 0; --k) {
    tags[k] = tags[k - 1];
    dirty[k] = dirty[k - 1];
  }
  tags[0] = line_addr;
  dirty[0] = write ? 1 : 0;
  return {false, writeback, victim};
}

void Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  accesses_ = 0;
  misses_ = 0;
}

}  // namespace vlacnn
