// Persistent cache of per-layer simulation results, shared by all benchmark
// binaries. The co-design figures all draw from the same (network x layer x
// algorithm x vlen x L2) grid; the first bench to need a point computes and
// appends it, later ones read it back.
//
// The store is safe for concurrent use by the parallel sweep engine:
//  * every public method is internally synchronized;
//  * get_or_compute() deduplicates in-flight work per key (single-flight):
//    when several threads ask for the same uncomputed key, exactly one runs
//    the compute function and the rest block for its result;
//  * doubles are persisted with %.17g, so a reloaded cache is bit-identical
//    to the run that produced it;
//  * rows are appended to disk as complete single lines and flushed, so a
//    crash can lose at most one partial trailing line — which the loader
//    detects, drops, and heals by rewriting the file.
#pragma once

#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "algos/conv_args.h"
#include "memsim/memory_system.h"
#include "tensor/conv_desc.h"

namespace vlacnn {

struct SweepKey {
  std::string net;  ///< model name, e.g. "vgg16"
  int layer = 0;    ///< conv-layer ordinal within the model (0-based)
  Algo algo = Algo::kGemm6;
  std::uint32_t vlen_bits = 512;
  std::uint64_t l2_bytes = 1u << 20;
  std::uint32_t lanes = 8;
  VpuAttach attach = VpuAttach::kIntegratedL1;

  auto tie() const {
    return std::tie(net, layer, algo, vlen_bits, l2_bytes, lanes, attach);
  }
  bool operator<(const SweepKey& o) const { return tie() < o.tie(); }
};

/// Cycle-attribution breakdown of one simulation point, mirroring the
/// TimingStats buckets. Every cache row carries it, so the report layer
/// (src/report/) can attribute cycles without re-simulating.
struct SweepBreakdown {
  double compute_cycles = 0;
  double mem_issue_cycles = 0;
  double mem_stall_cycles = 0;
  double scalar_cycles = 0;
  double vec_instructions = 0;
  double vec_elems = 0;
  double l1_accesses = 0;  ///< line probes at the VPU-facing level
  double l1_misses = 0;
  double l2_accesses = 0;
  double l2_misses = 0;
};

struct SweepRow {
  SweepKey key;
  ConvLayerDesc desc;
  double cycles = 0;
  double avg_vl = 0;
  double l2_miss_rate = 0;
  double mem_bytes = 0;
  double flops = 0;
  /// Always true: every row carries `bd`. Kept for the host benchmark
  /// (hostbench/), which still checks it.
  bool has_breakdown = true;
  SweepBreakdown bd;
};

/// True when `a` and `b` hold the same layer descriptor and the same bits in
/// all 15 numbers: the five headline values and the ten breakdown fields.
bool bit_identical(const SweepRow& a, const SweepRow& b);

/// CSV-backed, thread-safe store. Loads existing rows at construction;
/// get_or_compute() appends both in memory and on disk.
class ResultsDb {
 public:
  explicit ResultsDb(std::string path);

  std::optional<SweepRow> find(const SweepKey& key) const;

  /// The cached row for `key`, computing (and persisting) it via `compute` on
  /// a miss. Concurrent callers with the same key trigger exactly one compute;
  /// the others wait and share the result. If the compute or the write to
  /// disk throws (a failed write names the path), the key stays uncached and
  /// the exception propagates to every caller waiting on that key.
  SweepRow get_or_compute(const SweepKey& key,
                          const std::function<SweepRow()>& compute);

  std::size_t size() const;
  const std::string& path() const { return path_; }

  /// Every row, in SweepKey order.
  std::vector<SweepRow> rows() const;

  /// Rewrite the file with one row per key, in SweepKey order: the canonical
  /// form of a cache, which a heal on load writes too.
  void rewrite();

  /// True when construction found (and repaired) a truncated trailing row or
  /// a file that did not end in a newline.
  bool healed_on_load() const { return healed_on_load_; }

 private:
  void persist_locked(const SweepRow& row);

  struct InFlight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr err;
  };

  std::string path_;
  mutable std::mutex mu_;
  std::map<SweepKey, SweepRow> rows_;
  std::map<SweepKey, std::shared_ptr<InFlight>> inflight_;
  std::ofstream out_;  ///< lazily opened append writer (guarded by mu_)
  bool healed_on_load_ = false;
};

/// True when REPRO_EXACT is set to 1/true/yes/on (disables sampled
/// simulation); false when unset or 0/false/no/off. Any other value throws —
/// a typo must not silently run the sampled mode.
bool repro_exact_mode();

/// `sweep_cache.csv` under the REPRO_RESULTS_DIR env var, which defaults to
/// "results" under the current working directory. A SweepKey does not record
/// the sampler mode, so under REPRO_EXACT the rows go to their own
/// `sweep_cache_exact.csv` instead.
std::string default_results_path();

}  // namespace vlacnn
