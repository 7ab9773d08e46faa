#include "memsim/memory_system.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace vlacnn {

MemorySystem::MemorySystem(const MemConfig& config)
    : config_(config), l1_(config.l1), l2_(config.l2), vbuf_(config.vbuf) {
  // The timing model divides DRAM traffic by this peak bandwidth; zero would
  // silently turn every bandwidth term into inf.
  if (!(config.mem_bytes_per_cycle > 0.0))
    throw std::invalid_argument("memsim: mem_bytes_per_cycle must be positive");
  // access_via splits every access into L2-sized lines and probes each level
  // with those line addresses, so a level with another line size would
  // silently model a different cache.
  if (config.l1.line_bytes != config.l2.line_bytes ||
      config.vbuf.line_bytes != config.l2.line_bytes)
    throw std::invalid_argument(
        "memsim: l1 and vbuf line_bytes must equal l2 line_bytes");
}

MemorySystem::~MemorySystem() {
  if (!obs::metrics_enabled()) return;
  // Unscaled probe-level truth (the TimingModel keeps the sampled-and-scaled
  // view); aggregated across every simulation point of the run.
  struct Roll {
    obs::Counter& l1_acc;
    obs::Counter& l1_miss;
    obs::Counter& l2_acc;
    obs::Counter& l2_miss;
    obs::Counter& vbuf_acc;
    obs::Counter& vbuf_miss;
    obs::Counter& mem_bytes;
  };
  static Roll roll = [] {
    obs::Registry& reg = obs::Registry::global();
    return Roll{reg.counter("memsim.l1_accesses"),
                reg.counter("memsim.l1_misses"),
                reg.counter("memsim.l2_accesses"),
                reg.counter("memsim.l2_misses"),
                reg.counter("memsim.vbuf_accesses"),
                reg.counter("memsim.vbuf_misses"),
                reg.counter("memsim.mem_bytes")};
  }();
  roll.l1_acc.add(l1_.accesses());
  roll.l1_miss.add(l1_.misses());
  roll.l2_acc.add(l2_.accesses());
  roll.l2_miss.add(l2_.misses());
  roll.vbuf_acc.add(vbuf_.accesses());
  roll.vbuf_miss.add(vbuf_.misses());
  roll.mem_bytes.add(mem_bytes_total_);
}

AccessResult MemorySystem::prefetch(std::uint64_t addr, std::uint64_t bytes) {
  // Prefetches warm the same path a demand read would take.
  return vector_access(addr, bytes, false);
}

void MemorySystem::reset() {
  l1_.reset();
  l2_.reset();
  vbuf_.reset();
  mem_bytes_total_ = 0;
}

}  // namespace vlacnn
