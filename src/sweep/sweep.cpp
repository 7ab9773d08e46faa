#include "sweep/sweep.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "obs/kernprof.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/collector.h"

namespace vlacnn {

namespace {

/// A SweepRow, including the full cycle-attribution breakdown, from one
/// simulation's TimingStats.
SweepRow row_from_stats(const SweepKey& key, const ConvLayerDesc& desc,
                        const TimingStats& stats) {
  SweepRow r;
  r.key = key;
  r.desc = desc;
  r.cycles = stats.cycles;
  r.avg_vl = stats.avg_vl();
  r.l2_miss_rate = stats.l2_miss_rate();
  r.mem_bytes = stats.mem_bytes;
  r.flops = stats.flops;
  r.bd.compute_cycles = stats.compute_cycles;
  r.bd.mem_issue_cycles = stats.mem_issue_cycles;
  r.bd.mem_stall_cycles = stats.mem_stall_cycles;
  r.bd.scalar_cycles = stats.scalar_cycles;
  r.bd.vec_instructions = stats.vec_instructions;
  r.bd.vec_elems = stats.vec_elems;
  r.bd.l1_accesses = stats.first_level_accesses;
  r.bd.l1_misses = stats.first_level_misses;
  r.bd.l2_accesses = stats.l2_accesses;
  r.bd.l2_misses = stats.l2_misses;
  return r;
}

/// Report phase cells from a kernel profile's phases, keyed by the point's
/// report entry key (the kernprof block's label). A miss rate is NaN when
/// the phase made no accesses at that level.
std::vector<report::Json> phase_cells(const SweepKey& key,
                                      const std::vector<PmuPhaseStats>& phases) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::string label = report::entry_key(key);
  std::vector<report::Json> cells;
  cells.reserve(phases.size());
  for (const PmuPhaseStats& p : phases) {
    const TimingStats& r = p.raw;
    cells.push_back(
        report::Json()
            .add("key", label)
            .add("phase", p.name)
            .add("cycles", p.cycles)
            .add("compute_cycles", r.compute_cycles)
            .add("mem_issue_cycles", r.mem_issue_cycles)
            .add("mem_stall_cycles", r.mem_stall_cycles)
            .add("scalar_cycles", r.scalar_cycles)
            .add("avg_vl", r.avg_vl())
            .add("l1_miss_rate",
                 r.first_level_accesses > 0 ? r.l1_miss_rate() : kNaN)
            .add("l2_miss_rate", r.l2_accesses > 0 ? r.l2_miss_rate() : kNaN)
            .add("mem_bytes", r.mem_bytes));
  }
  return cells;
}

}  // namespace

std::vector<std::uint32_t> paper2_vlens() { return {512, 1024, 2048, 4096}; }
std::vector<std::uint64_t> paper2_l2_sizes() {
  return {1ull << 20, 4ull << 20, 16ull << 20, 64ull << 20};
}
std::vector<std::uint32_t> paper1_vlens() {
  return {512, 1024, 2048, 4096, 8192, 16384};
}
std::vector<std::uint64_t> paper1_l2_sizes() {
  return {1ull << 20, 8ull << 20, 64ull << 20, 256ull << 20};
}

SweepRow SweepDriver::get(const std::string& net_name, int conv_ordinal,
                          const ConvLayerDesc& desc, Algo algo,
                          std::uint32_t vlen_bits, std::uint64_t l2_bytes,
                          std::uint32_t lanes, VpuAttach attach) {
  SweepKey key{net_name, conv_ordinal, algo, vlen_bits, l2_bytes, lanes, attach};
  auto sim_config = [&] {
    SimConfig config = make_sim_config(vlen_bits, l2_bytes, lanes, attach);
    config.sampler.exact = repro_exact_mode();
    // Grid-point identity for kernprof labeling: with these set the profile
    // label equals report::entry_key(key), so profile blocks and report rows
    // join on the same string (vpu_config.h's point_label).
    config.net = net_name;
    config.layer = conv_ordinal;
    return config;
  };
  // The PMU's phases when this call simulated with VLACNN_KERNPROF on.
  std::vector<PmuPhaseStats> phases;
  SweepRow row = db_->get_or_compute(key, desc, [&] {
    // Only misses of an unsimulated shape reach this lambda, so the
    // span/sim-point metrics count actual simulations, tagged with the full
    // grid coordinate.
    obs::Span span("sweep.sim");
    if (span.active()) {
      span.arg("net", net_name);
      span.arg("layer", std::to_string(conv_ordinal));
      span.arg("algo", to_string(algo));
      span.arg("vlen", std::to_string(vlen_bits));
      span.arg("l2", std::to_string(l2_bytes));
    }
    SimConfig config = sim_config();
    const TimingStats stats = conv_simulate(algo, desc, config, &phases);
    if (obs::metrics_enabled()) {
      static obs::Counter& points =
          obs::Registry::global().counter("sweep.sim_points");
      points.add();
    }
    return row_from_stats(key, desc, stats);
  });
  if (!(row.desc == desc)) {
    throw std::runtime_error(
        "sweep: cached layer descriptor mismatch for " + net_name +
        " layer " + std::to_string(conv_ordinal) +
        " (stale cache? delete " + db_->path() + ")");
  }
  if (obs::kernprof_enabled() && phases.empty()) {
    // The row came out of a warm ResultsDb or is a copy of a same-shape row,
    // so no PMU rode along. Re-simulate purely for the profile, under this
    // key's label: the simulation is deterministic, so the recorded block is
    // byte-identical to a cold run's, and concurrent profilers of one key are
    // benign.
    obs::Span span("sweep.kernprof");
    if (span.active()) span.arg("net", net_name);
    SimConfig config = sim_config();
    conv_simulate(algo, desc, config, &phases);
  }
  if (report::enabled()) {
    report::Collector::global().record_row(row);
    if (!phases.empty()) {
      report::Collector::global().record(report::Section::kPhases,
                                         phase_cells(key, phases));
    }
  }
  return row;
}

std::vector<SweepRow> SweepDriver::get_many(
    const std::vector<SweepRequest>& reqs) {
  obs::Span span("sweep.get_many");
  if (span.active()) span.arg("requests", std::to_string(reqs.size()));
  if (obs::metrics_enabled()) {
    static obs::Counter& requests =
        obs::Registry::global().counter("sweep.requests");
    requests.add(reqs.size());
  }
  std::vector<SweepRow> out(reqs.size());
  // One task per request; the ResultsDb simulates each shape once
  // (single-flight) and indexing by request order keeps the output
  // deterministic regardless of scheduling.
  ThreadPool::shared().parallel_for(reqs.size(), [&](std::size_t i) {
    const SweepRequest& q = reqs[i];
    out[i] = get(q.net, q.layer, q.desc, q.algo, q.vlen_bits, q.l2_bytes,
                 q.lanes, q.attach);
  });
  return out;
}

void SweepDriver::prefetch(const Network& net, const std::vector<Algo>& algos,
                           const std::vector<std::uint32_t>& vlens,
                           const std::vector<std::uint64_t>& l2_sizes,
                           std::uint32_t lanes, VpuAttach attach) {
  obs::Span span("sweep.prefetch");
  if (span.active()) span.arg("net", net.name());
  obs::log(obs::LogLevel::kDebug, "sweep", "prefetch",
           {{"net", net.name()},
            {"algos", std::to_string(algos.size())},
            {"vlens", std::to_string(vlens.size())},
            {"l2_sizes", std::to_string(l2_sizes.size())}});
  const auto descs = net.conv_descs();
  std::vector<SweepRequest> reqs;
  reqs.reserve(descs.size() * algos.size() * vlens.size() * l2_sizes.size());
  for (std::uint32_t vlen : vlens) {
    for (std::uint64_t l2 : l2_sizes) {
      for (Algo algo : algos) {
        for (std::size_t i = 0; i < descs.size(); ++i) {
          const Algo a = algo_applicable(algo, descs[i]) ? algo : Algo::kGemm6;
          reqs.push_back({net.name(), static_cast<int>(i), descs[i], a, vlen,
                          l2, lanes, attach});
        }
      }
    }
  }
  get_many(reqs);
}

std::vector<SweepRow> SweepDriver::network_rows(const Network& net, Algo algo,
                                                std::uint32_t vlen_bits,
                                                std::uint64_t l2_bytes,
                                                std::uint32_t lanes,
                                                VpuAttach attach) {
  const auto descs = net.conv_descs();
  std::vector<SweepRequest> reqs;
  reqs.reserve(descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const Algo a = algo_applicable(algo, descs[i]) ? algo : Algo::kGemm6;
    reqs.push_back({net.name(), static_cast<int>(i), descs[i], a, vlen_bits,
                    l2_bytes, lanes, attach});
  }
  return get_many(reqs);
}

double SweepDriver::network_cycles(const Network& net, Algo algo,
                                   std::uint32_t vlen_bits,
                                   std::uint64_t l2_bytes, std::uint32_t lanes,
                                   VpuAttach attach) {
  double total = 0;
  for (const SweepRow& r :
       network_rows(net, algo, vlen_bits, l2_bytes, lanes, attach)) {
    total += r.cycles;
  }
  return total;
}

SweepDriver::OptimalResult SweepDriver::network_optimal(const Network& net,
                                                        std::uint32_t vlen_bits,
                                                        std::uint64_t l2_bytes,
                                                        std::uint32_t lanes,
                                                        VpuAttach attach) {
  obs::Span span("sweep.network_optimal");
  if (span.active()) {
    span.arg("net", net.name());
    span.arg("vlen", std::to_string(vlen_bits));
    span.arg("l2", std::to_string(l2_bytes));
  }
  const auto descs = net.conv_descs();
  // Fan out over every applicable (layer, algorithm) point, then reduce
  // serially in the same layer-major / kAllAlgos order as the serial loop:
  // identical iteration order means identical tie-breaking, so the parallel
  // plan is bit-for-bit the serial plan.
  std::vector<SweepRequest> reqs;
  std::vector<std::size_t> layer_of;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    for (Algo a : kAllAlgos) {
      if (!algo_applicable(a, descs[i])) continue;
      reqs.push_back({net.name(), static_cast<int>(i), descs[i], a, vlen_bits,
                      l2_bytes, lanes, attach});
      layer_of.push_back(i);
    }
  }
  const std::vector<SweepRow> rows = get_many(reqs);

  OptimalResult out;
  out.plan.assign(descs.size(), Algo::kGemm6);
  std::vector<double> best(descs.size(),
                           std::numeric_limits<double>::infinity());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const std::size_t i = layer_of[j];
    if (rows[j].cycles < best[i]) {
      best[i] = rows[j].cycles;
      out.plan[i] = reqs[j].algo;
    }
  }
  for (double b : best) out.cycles += b;
  return out;
}

std::vector<std::array<double, kAllAlgos.size()>>
SweepDriver::layer_algo_cycles(const Network& net, std::uint32_t vlen_bits,
                               std::uint64_t l2_bytes, std::uint32_t lanes,
                               VpuAttach attach) {
  const auto descs = net.conv_descs();
  // Same applicable (layer, algo) fan-out as network_optimal, but keeping the
  // full table instead of reducing to the argmin, so a consumer can price any
  // plan (including deliberately suboptimal exploration) without re-querying.
  std::vector<SweepRequest> reqs;
  std::vector<std::pair<std::size_t, std::size_t>> slot_of;  // (layer, algo)
  for (std::size_t i = 0; i < descs.size(); ++i) {
    for (std::size_t a = 0; a < kAllAlgos.size(); ++a) {
      if (!algo_applicable(kAllAlgos[a], descs[i])) continue;
      reqs.push_back({net.name(), static_cast<int>(i), descs[i], kAllAlgos[a],
                      vlen_bits, l2_bytes, lanes, attach});
      slot_of.push_back({i, a});
    }
  }
  const std::vector<SweepRow> rows = get_many(reqs);

  std::vector<std::array<double, kAllAlgos.size()>> table(descs.size());
  for (auto& row : table) {
    row.fill(std::numeric_limits<double>::quiet_NaN());
  }
  for (std::size_t j = 0; j < rows.size(); ++j) {
    table[slot_of[j].first][slot_of[j].second] = rows[j].cycles;
  }
  return table;
}

double SweepDriver::network_plan_cycles(const Network& net,
                                        const std::vector<Algo>& plan,
                                        std::uint32_t vlen_bits,
                                        std::uint64_t l2_bytes,
                                        std::uint32_t lanes, VpuAttach attach) {
  const auto descs = net.conv_descs();
  if (plan.size() != descs.size()) {
    throw std::invalid_argument("sweep: plan size mismatch");
  }
  std::vector<SweepRequest> reqs;
  reqs.reserve(descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const Algo a = algo_applicable(plan[i], descs[i]) ? plan[i] : Algo::kGemm6;
    reqs.push_back({net.name(), static_cast<int>(i), descs[i], a, vlen_bits,
                    l2_bytes, lanes, attach});
  }
  double total = 0;
  for (const SweepRow& r : get_many(reqs)) total += r.cycles;
  return total;
}

}  // namespace vlacnn
