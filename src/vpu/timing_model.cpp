#include "vpu/timing_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vpu/pmu.h"

namespace vlacnn {

TimingModel::TimingModel(const VpuConfig& vpu, MemorySystem* mem,
                         const TimingConfig& config)
    : vpu_(vpu), mem_(mem), config_(config) {
  validate(vpu);
  // Every field checked here sits on the right of a division in the cycle
  // model; zero would silently propagate inf/NaN through the stats (the old
  // behaviour of `latency /= miss_overlap`).
  if (!(config.scalar_ipc > 0.0))
    throw std::invalid_argument("timing: scalar_ipc must be positive");
  if (!(config.strided_lane_divisor > 0.0))
    throw std::invalid_argument("timing: strided_lane_divisor must be positive");
  if (!(config.indexed_lane_divisor > 0.0))
    throw std::invalid_argument("timing: indexed_lane_divisor must be positive");
  if (!(config.miss_overlap > 0.0))
    throw std::invalid_argument("timing: miss_overlap must be positive");
  if (!(config.cache_bytes_per_cycle > 0.0))
    throw std::invalid_argument(
        "timing: cache_bytes_per_cycle must be positive");
}

void TimingModel::pmu_begin(const char* name) {
  if (pmu_ != nullptr) pmu_->begin_phase(name, stats_);
}

void TimingModel::pmu_end() {
  if (pmu_ != nullptr) pmu_->end_phase(stats_);
}

void TimingModel::notify_pmu() { pmu_->on_event(stats_); }

void TimingModel::push_scale(double s) {
  const double scaled = scale_ * s;
  if (!(s > 0.0) || !std::isfinite(s) || !std::isfinite(scaled))
    throw std::invalid_argument("timing: scale must be finite and positive");
  scale_stack_.push_back(scale_);
  scale_ = scaled;
}

void TimingModel::pop_scale() {
  if (scale_stack_.empty()) throw std::logic_error("timing: scale stack empty");
  scale_ = scale_stack_.back();
  scale_stack_.pop_back();
}

void TimingModel::vec_reduce(std::uint64_t vl) {
  if (vl == 0) return;
  const double steps = std::ceil(
      std::log2(static_cast<double>(std::max<std::uint64_t>(vl, 2))));
  const double c = config_.vec_startup_cycles + 2.0 * steps;
  stats_.cycles += scale_ * c;
  stats_.compute_cycles += scale_ * c;
  stats_.vec_instructions += scale_;
  stats_.vec_elems += scale_ * static_cast<double>(vl);
  stats_.flops += scale_ * static_cast<double>(vl);
  if (pmu_ != nullptr) pmu_->on_event(stats_);
}

void TimingModel::account_misses(const AccessResult& r, bool write,
                                 std::uint64_t l2_acc_delta,
                                 std::uint64_t l2_miss_delta) {
  stats_.first_level_misses += scale_ * r.l1_misses;
  stats_.l2_accesses += scale_ * static_cast<double>(l2_acc_delta);
  stats_.l2_misses += scale_ * static_cast<double>(l2_miss_delta);
  stats_.mem_bytes += scale_ * static_cast<double>(r.mem_bytes);
  // Something missed, so there is a memory system.
  const MemConfig& mc = mem_->config();
  // Latency term: first-level misses pay the next level's latency; memory
  // misses additionally pay DRAM latency. Overlapped by the MLP factor.
  // (A leading-miss-only "streamed fill" variant was evaluated and rejected:
  // it overshoots Paper I's measured long-vector scaling — see EXPERIMENTS.md.)
  double latency = r.l1_misses * static_cast<double>(mc.l2.latency_cycles) +
                   r.l2_misses * static_cast<double>(mc.mem_latency_cycles);
  latency /= config_.miss_overlap;
  if (write) latency *= config_.store_latency_factor;
  // Bandwidth term: DRAM traffic cannot exceed peak bandwidth.
  const double bw = static_cast<double>(r.mem_bytes) / mc.mem_bytes_per_cycle;
  const double stall = std::max(latency, bw);
  stats_.cycles += scale_ * stall;
  stats_.mem_stall_cycles += scale_ * stall;
}

void TimingModel::vec_mem(std::uint64_t addr, std::uint64_t vl,
                          std::int64_t stride_bytes, MemPattern pattern,
                          bool write) {
  if (vl == 0) return;
  stats_.vec_instructions += scale_;
  stats_.vec_elems += scale_ * static_cast<double>(vl);

  const std::uint64_t l2a0 = mem_ ? mem_->l2().accesses() : 0;
  const std::uint64_t l2m0 = mem_ ? mem_->l2().misses() : 0;

  AccessResult r;
  double issue = config_.vec_startup_cycles;
  if (pattern == MemPattern::kUnit) {
    const std::uint64_t bytes = vl * 4;
    if (mem_ != nullptr) r = mem_->vector_access(addr, bytes, write);
    const double lane_cycles =
        std::ceil(static_cast<double>(vl) / static_cast<double>(vpu_.lanes));
    const double line_cycles =
        static_cast<double>(bytes) / config_.cache_bytes_per_cycle;
    issue += std::max(lane_cycles, line_cycles);
  } else {
    // Strided / indexed: one address per element; elements may land anywhere.
    const double divisor = pattern == MemPattern::kStrided
                               ? config_.strided_lane_divisor
                               : config_.indexed_lane_divisor;
    const double tput = std::max(1.0, static_cast<double>(vpu_.lanes) / divisor);
    issue += std::ceil(static_cast<double>(vl) / tput);
    if (mem_ != nullptr) {
      for (std::uint64_t i = 0; i < vl; ++i) {
        const std::uint64_t a =
            addr + static_cast<std::uint64_t>(static_cast<std::int64_t>(i) *
                                              stride_bytes);
        AccessResult e = mem_->vector_access(a, 4, write);
        r.lines += e.lines;
        r.l1_misses += e.l1_misses;
        r.l2_misses += e.l2_misses;
        r.mem_bytes += e.mem_bytes;
      }
    }
  }
  stats_.cycles += scale_ * issue;
  stats_.mem_issue_cycles += scale_ * issue;

  const std::uint64_t l2a = mem_ ? mem_->l2().accesses() - l2a0 : 0;
  const std::uint64_t l2m = mem_ ? mem_->l2().misses() - l2m0 : 0;
  account_mem_result(r, write, l2a, l2m);
  if (pmu_ != nullptr) pmu_->on_event(stats_);
}

void TimingModel::prefetch(std::uint64_t addr, std::uint64_t bytes) {
  if (!config_.sw_prefetch_effective) return;  // toolchain drops the intrinsic
  if (mem_ != nullptr) mem_->prefetch(addr, bytes);
  // Non-blocking: only a one-cycle issue slot.
  stats_.cycles += scale_;
  stats_.scalar_cycles += scale_;
  if (pmu_ != nullptr) pmu_->on_event(stats_);
}

void TimingModel::scalar_ops(std::uint64_t n) {
  const double c = static_cast<double>(n) / config_.scalar_ipc;
  stats_.cycles += scale_ * c;
  stats_.scalar_cycles += scale_ * c;
  if (pmu_ != nullptr) pmu_->on_event(stats_);
}

}  // namespace vlacnn
