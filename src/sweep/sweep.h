// Co-design sweep driver: computes (or retrieves) the per-layer simulation grid
// every figure is built from, and provides the standard grids of Paper II
// (vlen in {512..4096} x L2 in {1,4,16,64} MB) and Paper I (decoupled VPU,
// vlen to 16384, L2 to 256 MB).
//
// Independent grid points fan out across ThreadPool::shared(): get_many() (and
// everything built on it — network_rows, network_optimal, prefetch, the
// serving grid) simulates misses in parallel, deduplicated per key by the
// thread-safe ResultsDb, and assembles results in deterministic request order,
// so parallel output is bit-identical to a serial run.
#pragma once

#include <array>
#include <vector>

#include "algos/registry.h"
#include "net/network.h"
#include "sweep/results_db.h"

namespace vlacnn {

/// Paper II hardware grid.
std::vector<std::uint32_t> paper2_vlens();        // 512..4096
std::vector<std::uint64_t> paper2_l2_sizes();     // 1,4,16,64 MB
/// Paper I hardware grid (decoupled RVV).
std::vector<std::uint32_t> paper1_vlens();        // 512..16384
std::vector<std::uint64_t> paper1_l2_sizes();     // 1,8,64,256 MB

/// One (layer, algorithm, hardware) point of the sweep grid.
struct SweepRequest {
  std::string net;
  int layer = 0;
  ConvLayerDesc desc;
  Algo algo = Algo::kGemm6;
  std::uint32_t vlen_bits = 512;
  std::uint64_t l2_bytes = 1u << 20;
  std::uint32_t lanes = 8;
  VpuAttach attach = VpuAttach::kIntegratedL1;
};

/// Front door to the per-layer simulation grid. All methods are thread-safe
/// (state is one pointer to the internally-synchronized ResultsDb), so a
/// driver may be shared by concurrent pool tasks — the serving simulators do
/// exactly that. All returned times are simulated core **cycles** (2 GHz in
/// the papers); conversion to seconds happens only in presentation code.
class SweepDriver {
 public:
  explicit SweepDriver(ResultsDb* db) : db_(db) {}

  /// Result for one (layer, algo, hardware) point; simulates on cache miss.
  /// The sampler honours REPRO_EXACT (see repro_exact_mode). Thread-safe:
  /// concurrent calls for the same key run exactly one simulation.
  SweepRow get(const std::string& net_name, int conv_ordinal,
               const ConvLayerDesc& desc, Algo algo, std::uint32_t vlen_bits,
               std::uint64_t l2_bytes, std::uint32_t lanes = 8,
               VpuAttach attach = VpuAttach::kIntegratedL1);

  /// Batch get(): simulates all misses in parallel on the shared pool and
  /// returns rows in request order (out[i] answers reqs[i]).
  std::vector<SweepRow> get_many(const std::vector<SweepRequest>& reqs);

  /// Warm the cache for every (conv layer x algo-with-fallback x vlen x L2)
  /// combination in one parallel fan-out. Figure drivers call this first so
  /// their serial formatting loops hit a fully populated cache.
  void prefetch(const Network& net, const std::vector<Algo>& algos,
                const std::vector<std::uint32_t>& vlens,
                const std::vector<std::uint64_t>& l2_sizes,
                std::uint32_t lanes = 8,
                VpuAttach attach = VpuAttach::kIntegratedL1);

  /// All per-layer rows of one network under one hardware point, one row per
  /// conv layer, using `algo` where applicable and gemm6 as fallback.
  std::vector<SweepRow> network_rows(const Network& net, Algo algo,
                                     std::uint32_t vlen_bits,
                                     std::uint64_t l2_bytes,
                                     std::uint32_t lanes = 8,
                                     VpuAttach attach = VpuAttach::kIntegratedL1);

  /// Sum of cycles over conv layers for a uniform-algorithm plan (cycles).
  double network_cycles(const Network& net, Algo algo, std::uint32_t vlen_bits,
                        std::uint64_t l2_bytes, std::uint32_t lanes = 8,
                        VpuAttach attach = VpuAttach::kIntegratedL1);

  /// Per-layer optimal plan (argmin over applicable algorithms) and its cycles.
  struct OptimalResult {
    std::vector<Algo> plan;  ///< winning algorithm per conv layer, in order
    double cycles = 0;       ///< whole-network conv time, simulated cycles
  };
  OptimalResult network_optimal(const Network& net, std::uint32_t vlen_bits,
                                std::uint64_t l2_bytes, std::uint32_t lanes = 8,
                                VpuAttach attach = VpuAttach::kIntegratedL1);

  /// Per-layer, per-algorithm cycle table: out[layer][i] is the simulated
  /// cycles of kAllAlgos[i] on conv layer `layer`, or NaN when that algorithm
  /// is not applicable to the layer. One parallel fan-out over the same
  /// (layer, algo) points network_optimal visits — on a warm cache this is
  /// pure lookup. The learned dispatcher (src/dispatch) consumes this as its
  /// per-point ground truth.
  std::vector<std::array<double, kAllAlgos.size()>> layer_algo_cycles(
      const Network& net, std::uint32_t vlen_bits, std::uint64_t l2_bytes,
      std::uint32_t lanes = 8, VpuAttach attach = VpuAttach::kIntegratedL1);

  /// Cycles of an explicit per-conv-layer plan (plan.size() must equal the
  /// network's conv-layer count).
  double network_plan_cycles(const Network& net, const std::vector<Algo>& plan,
                             std::uint32_t vlen_bits, std::uint64_t l2_bytes,
                             std::uint32_t lanes = 8,
                             VpuAttach attach = VpuAttach::kIntegratedL1);

  ResultsDb* db() const { return db_; }

 private:
  ResultsDb* db_;
};

}  // namespace vlacnn
