// In-order vector pipeline timing model (the cycle-accounting half of the gem5
// substitute).
//
// Cycle model, per event:
//   vector arithmetic  : startup + ceil(vl / lanes)
//   vector unit-stride : startup + max(ceil(vl / lanes), lines) issue occupancy,
//                        plus a memory stall that is the max of a latency term
//                        (misses x level latency, divided by the MLP overlap
//                        factor) and a bandwidth term (DRAM bytes / peak BW).
//   strided / indexed  : element-at-a-time address generation throughput.
//   reduction          : log2(vl) tree steps.
//   scalar             : ops / issue width; scalar memory goes through L1.
//
// The three mechanisms the papers' co-design results hinge on all fall out of
// this model plus the trace-driven cache simulation:
//   1. per-instruction startup amortises with longer vectors (VLEN scaling),
//   2. longer vectors enlarge the reuse footprint, raising capacity misses when
//      L2 is small (the Table III miss-rate trend, the 4096-bit GEMM collapse),
//   3. lanes bound element throughput (lane-scaling study).
//
// Sampled simulation: every increment is multiplied by the current scale factor
// (see push_scale), so a kernel may simulate a deterministic fraction of its
// outer loop and report extrapolated totals.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/memory_system.h"
#include "vpu/vpu_config.h"

namespace vlacnn {

class Pmu;

/// Tunable cost parameters. Defaults are calibrated so absolute cycle counts for
/// the paper's workloads land in the same decade as the reported gem5 numbers.
/// The divisor-bearing fields (scalar_ipc, strided/indexed_lane_divisor,
/// miss_overlap, cache_bytes_per_cycle) must be positive — the TimingModel
/// constructor throws std::invalid_argument otherwise, since they all appear
/// on the right of a division in the cycle model.
struct TimingConfig {
  double vec_startup_cycles = 10.0;   ///< per-vector-instruction overhead
  double scalar_ipc = 2.0;            ///< in-order dual-issue scalar core
  double strided_lane_divisor = 4.0;  ///< strided tput = lanes/divisor elem/cyc
  double indexed_lane_divisor = 8.0;  ///< gather/scatter tput
  double miss_overlap = 4.0;          ///< outstanding-miss parallelism (MLP)
  double store_latency_factor = 0.25; ///< stores mostly retire via write buffer
  double cache_bytes_per_cycle = 64.0;///< cache-to-VPU line bandwidth
  bool sw_prefetch_effective = false; ///< RVV toolchain drops prefetches (Paper I)
};

enum class MemPattern { kUnit, kStrided, kIndexed };

/// Scaled statistics accumulated over a simulation.
///
/// Accounting invariant: the four cycle buckets exactly partition `cycles` —
/// every event that advances `cycles` charges the same amount to exactly one
/// bucket (compute for vector arithmetic/reductions, mem_issue for vector
/// memory occupancy, mem_stall for the stall the memory system adds on top,
/// scalar for scalar ops/memory and software prefetch overhead). So
/// bucket_sum() == cycles up to floating-point reassociation: the buckets sum
/// in a different order than `cycles` accumulates, so tests must compare with
/// a relative tolerance (~1e-9), not bitwise (see
/// TimingModel.BucketsReconcileWithTotalForEveryAlgorithm in
/// tests/test_vpu.cpp). The report layer relies on this to present the
/// split as percentages of the total.
///
/// This is the one record of the simulator's counters: a PMU phase or window
/// (vpu/pmu.h) holds a TimingStats delta, and the kernel-profile JSONL and
/// `vlacnn-report profile` read and write these fields by name.
struct TimingStats {
  double cycles = 0;
  double compute_cycles = 0;     // vector arithmetic occupancy
  double mem_issue_cycles = 0;   // vector memory occupancy
  double mem_stall_cycles = 0;   // miss latency / bandwidth stalls
  double scalar_cycles = 0;
  double vec_instructions = 0;
  double vec_elems = 0;          // total elements processed by vector insns
  double flops = 0;              // floating point ops (2 per FMA element)
  double first_level_accesses = 0;  // line probes at the VPU-facing level
  double first_level_misses = 0;
  double l2_accesses = 0;
  double l2_misses = 0;
  double mem_bytes = 0;

  double avg_vl() const {
    return vec_instructions > 0 ? vec_elems / vec_instructions : 0.0;
  }
  /// Sum of the four attribution buckets; equals `cycles` up to FP
  /// reassociation (see the invariant above).
  double bucket_sum() const {
    return compute_cycles + mem_issue_cycles + mem_stall_cycles +
           scalar_cycles;
  }
  double l1_miss_rate() const {
    return first_level_accesses > 0 ? first_level_misses / first_level_accesses
                                    : 0.0;
  }
  double l2_miss_rate() const {
    return l2_accesses > 0 ? l2_misses / l2_accesses : 0.0;
  }

  /// Fieldwise sum and difference: every field combines with its own
  /// counterpart alone, so a PMU delta or merge is bit for bit the per-field
  /// arithmetic.
  TimingStats& operator+=(const TimingStats& o) {
    cycles += o.cycles;
    compute_cycles += o.compute_cycles;
    mem_issue_cycles += o.mem_issue_cycles;
    mem_stall_cycles += o.mem_stall_cycles;
    scalar_cycles += o.scalar_cycles;
    vec_instructions += o.vec_instructions;
    vec_elems += o.vec_elems;
    flops += o.flops;
    first_level_accesses += o.first_level_accesses;
    first_level_misses += o.first_level_misses;
    l2_accesses += o.l2_accesses;
    l2_misses += o.l2_misses;
    mem_bytes += o.mem_bytes;
    return *this;
  }
  TimingStats& operator-=(const TimingStats& o) {
    cycles -= o.cycles;
    compute_cycles -= o.compute_cycles;
    mem_issue_cycles -= o.mem_issue_cycles;
    mem_stall_cycles -= o.mem_stall_cycles;
    scalar_cycles -= o.scalar_cycles;
    vec_instructions -= o.vec_instructions;
    vec_elems -= o.vec_elems;
    flops -= o.flops;
    first_level_accesses -= o.first_level_accesses;
    first_level_misses -= o.first_level_misses;
    l2_accesses -= o.l2_accesses;
    l2_misses -= o.l2_misses;
    mem_bytes -= o.mem_bytes;
    return *this;
  }
};

/// The counter delta b - a, field by field.
inline TimingStats operator-(TimingStats b, const TimingStats& a) {
  return b -= a;
}

class TimingModel {
 public:
  TimingModel(const VpuConfig& vpu, MemorySystem* mem,
              const TimingConfig& config = {});

  // -- sampling ---------------------------------------------------------------
  void push_scale(double s);
  void pop_scale();
  double current_scale() const { return scale_; }

  // -- events -----------------------------------------------------------------
  void vec_arith(std::uint64_t vl, std::uint32_t flops_per_elem = 2);
  void vec_reduce(std::uint64_t vl);
  void vec_mem(std::uint64_t addr, std::uint64_t vl, std::int64_t stride_bytes,
               MemPattern pattern, bool write);
  void prefetch(std::uint64_t addr, std::uint64_t bytes);
  void scalar_ops(std::uint64_t n);
  void scalar_mem(std::uint64_t addr, std::uint64_t bytes, bool write);

  const TimingStats& stats() const { return stats_; }
  const VpuConfig& vpu() const { return vpu_; }
  MemorySystem* memory() const { return mem_; }
  const TimingConfig& config() const { return config_; }

  // -- profiling (DESIGN.md §14) ----------------------------------------------
  /// Attach a PMU: every event hands it the updated aggregate stats (counter
  /// windows), and pmu_begin/pmu_end delimit algorithm phases. Null detaches;
  /// the disabled path is one pointer check per event.
  void set_pmu(Pmu* pmu) { pmu_ = pmu; }
  Pmu* pmu() const { return pmu_; }
  /// Open/close an algorithm phase on the attached PMU; no-ops when detached.
  /// Kernels normally use the PmuPhase RAII guard (vpu/pmu.h) instead.
  void pmu_begin(const char* name);
  void pmu_end();

 private:
  void account_mem_result(const AccessResult& r, bool write, MemPattern pattern,
                          std::uint64_t l2_acc_delta,
                          std::uint64_t l2_miss_delta);

  VpuConfig vpu_;
  MemorySystem* mem_;  // may be null: pure op counting without cache behaviour
  TimingConfig config_;
  TimingStats stats_;
  double scale_ = 1.0;
  std::vector<double> scale_stack_;
  Pmu* pmu_ = nullptr;  // not owned; null when profiling is off
};

/// RAII sampling-scale guard: push_scale on entry, pop_scale on exit — also
/// on exceptional exit, which the manual push/pop pairs it replaced did not
/// guarantee. Inert when constructed with a null model (the FunctionalEngine
/// may run without timing) so kernels can scope it unconditionally:
///
///   ScaledRegion scaled(sample && run < total ? eng.timing() : nullptr,
///                       static_cast<double>(total) / run);
class ScaledRegion {
 public:
  ScaledRegion(TimingModel* tm, double scale) : tm_(tm) {
    if (tm_ != nullptr) tm_->push_scale(scale);
  }
  ~ScaledRegion() {
    if (tm_ != nullptr) tm_->pop_scale();
  }
  ScaledRegion(const ScaledRegion&) = delete;
  ScaledRegion& operator=(const ScaledRegion&) = delete;

 private:
  TimingModel* tm_;
};

}  // namespace vlacnn
