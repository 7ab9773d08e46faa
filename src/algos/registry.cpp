#include "algos/registry.h"

#include <stdexcept>

#include "algos/direct.h"
#include "algos/gemm3.h"
#include "algos/gemm6.h"
#include "algos/winograd.h"
#include "obs/json_util.h"
#include "obs/kernprof.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vpu/functional_engine.h"
#include "vpu/trace_engine.h"

namespace vlacnn {

SimConfig make_sim_config(std::uint32_t vlen_bits, std::uint64_t l2_bytes,
                          std::uint32_t lanes, VpuAttach attach) {
  SimConfig c;
  c.vpu.vlen_bits = vlen_bits;
  c.vpu.lanes = lanes;
  c.vpu.attach = attach;
  c.mem.l2.size_bytes = l2_bytes;
  c.mem.l2.ways = 16;
  c.mem.attach = attach;
  return c;
}

namespace {

std::vector<float> flatten_nhwc(const Tensor& in) {
  Tensor t = in.to_layout(Layout::kNHWC);
  return std::vector<float>(t.data(), t.data() + t.size());
}

}  // namespace

std::vector<float> reformat_weights_direct(const ConvLayerDesc& d,
                                           const std::vector<float>& w,
                                           std::uint64_t mvl) {
  // OIHW -> [oc/mvl][kh][kw][ic][block]: unit-stride weight-vector loads with
  // a contiguous per-segment working set (avoids the power-of-two set-aliasing
  // a plain HWIO layout suffers in the L2).
  std::vector<float> out(d.weight_elems());
  const std::uint64_t block = std::min<std::uint64_t>(mvl, d.oc);
  std::size_t base = 0;
  for (int ob = 0; ob < d.oc; ob += static_cast<int>(block)) {
    const std::uint64_t cur =
        std::min<std::uint64_t>(block, d.oc - static_cast<std::uint64_t>(ob));
    for (int ky = 0; ky < d.kh; ++ky) {
      for (int kx = 0; kx < d.kw; ++kx) {
        for (int ic = 0; ic < d.ic; ++ic) {
          for (std::uint64_t b = 0; b < cur; ++b) {
            const std::size_t oc = static_cast<std::size_t>(ob) + b;
            out[base + ((static_cast<std::size_t>(ky) * d.kw + kx) * d.ic +
                        ic) * cur + b] =
                w[((oc * d.ic + ic) * d.kh + ky) * d.kw + kx];
          }
        }
      }
    }
    base += static_cast<std::size_t>(d.kh) * d.kw * d.ic * cur;
  }
  return out;
}

namespace {

/// The shared timing-simulation body. `pmu`, when non-null, is attached to
/// the TimingModel for the duration of the run (phase annotations + counter
/// windows); it is pure accounting and never changes the returned stats.
TimingStats simulate_impl(Algo algo, const ConvLayerDesc& d,
                          const SimConfig& config_in, Pmu* pmu) {
  if (!algo_applicable(algo, d)) {
    throw std::invalid_argument("conv_simulate: " + std::string(to_string(algo)) +
                                " not applicable to " + d.to_string());
  }
  SimConfig config = config_in;
  config.mem.attach = config.vpu.attach;
  MemorySystem mem(config.mem);
  TimingModel timing(config.vpu, &mem, config.timing);
  timing.set_pmu(pmu);
  TraceEngine eng(config.vpu, &timing);

  // Bind order matches conv_functional's per-algorithm order exactly, so a
  // hybrid functional+timing run sees identical virtual addresses (checked by
  // Simulation.HybridFunctionalTimingMatchesTrace).
  const BufView in = eng.bind(nullptr, d.in_elems());

  switch (algo) {
    case Algo::kDirect: {
      const BufView w = eng.bind(nullptr, d.weight_elems());
      const BufView out = direct_uses_wide(d, config.vpu.mvl())
                              ? eng.alloc(d.out_elems()).view
                              : eng.bind(nullptr, d.out_elems());
      conv_direct(eng, d, in, w, out, config.sampler);
      break;
    }
    case Algo::kGemm3: {
      const BufView w = eng.bind(nullptr, d.weight_elems());
      const BufView out = eng.bind(nullptr, d.out_elems());
      conv_gemm3(eng, d, in, w, out, config.sampler);
      break;
    }
    case Algo::kGemm6: {
      const BufView w = eng.bind(nullptr, d.weight_elems());
      const BufView out = eng.bind(nullptr, d.out_elems());
      conv_gemm6(eng, d, in, w, out, config.blocks, config.sampler);
      break;
    }
    case Algo::kWinograd: {
      const BufView u = eng.bind(
          nullptr, 64ull * static_cast<std::uint64_t>(d.oc) * d.ic);
      const BufView out = eng.bind(nullptr, d.out_elems());
      conv_winograd(eng, d, in, u, out, config.sampler);
      break;
    }
  }
  return timing.stats();
}

/// Grid-point label for the kernel-profile sink: report::entry_key when the
/// point carries a (net, layer) identity, the layer's shape string as the
/// head otherwise.
std::string kernprof_label(Algo algo, const ConvLayerDesc& d,
                           const SimConfig& c) {
  const std::string head =
      c.net.empty() ? d.to_string() : layer_head(c.net, c.layer);
  return point_label(head, to_string(algo), c.vpu.vlen_bits,
                     c.mem.l2.size_bytes, c.vpu.lanes, c.vpu.attach);
}

/// The kernel-profile JSONL block of one finalized PMU (DESIGN.md §14): a
/// "kernel" line with the grid-point identity and the cycle buckets of
/// `total`, one "phase" line per phase and one "window" line per counter
/// window. Byte-stable: fixed key order, %.17g numbers.
std::string kernprof_block(const Pmu& pmu, const TimingStats& total,
                           Algo algo, const SimConfig& c) {
  using obs::append_kv;
  std::string out = "{\"type\":\"kernel\"";
  append_kv(out, "net", c.net);
  append_kv(out, "layer", c.layer);
  append_kv(out, "algo", std::string(to_string(algo)));
  append_kv(out, "vlen_bits", static_cast<std::uint64_t>(c.vpu.vlen_bits));
  append_kv(out, "l2_bytes", c.mem.l2.size_bytes);
  append_kv(out, "lanes", static_cast<std::uint64_t>(c.vpu.lanes));
  append_kv(out, "attach", std::string(to_string(c.vpu.attach)));
  append_kv(out, "interval_cycles", pmu.interval_cycles());
  append_kv(out, "cycles", total.cycles);
  append_kv(out, "compute_cycles", total.compute_cycles);
  append_kv(out, "mem_issue_cycles", total.mem_issue_cycles);
  append_kv(out, "mem_stall_cycles", total.mem_stall_cycles);
  append_kv(out, "scalar_cycles", total.scalar_cycles);
  append_kv(out, "phase_count",
            static_cast<std::uint64_t>(pmu.phases().size()));
  append_kv(out, "window_count",
            static_cast<std::uint64_t>(pmu.windows().size()));
  out += "}\n";
  for (const PmuPhaseStats& p : pmu.phases()) {
    const TimingStats& r = p.raw;
    out += "{\"type\":\"phase\"";
    append_kv(out, "name", p.name);
    append_kv(out, "cycles", p.cycles);
    append_kv(out, "raw_cycles", r.cycles);
    append_kv(out, "compute_cycles", r.compute_cycles);
    append_kv(out, "mem_issue_cycles", r.mem_issue_cycles);
    append_kv(out, "mem_stall_cycles", r.mem_stall_cycles);
    append_kv(out, "scalar_cycles", r.scalar_cycles);
    append_kv(out, "vec_instructions", r.vec_instructions);
    append_kv(out, "vec_elems", r.vec_elems);
    append_kv(out, "avg_vl", r.avg_vl());
    append_kv(out, "flops", r.flops);
    append_kv(out, "l1_accesses", r.first_level_accesses);
    append_kv(out, "l1_misses", r.first_level_misses);
    append_kv(out, "l2_accesses", r.l2_accesses);
    append_kv(out, "l2_misses", r.l2_misses);
    append_kv(out, "mem_bytes", r.mem_bytes);
    out += "}\n";
  }
  for (const PmuWindow& w : pmu.windows()) {
    const TimingStats& d = w.delta;
    out += "{\"type\":\"window\"";
    append_kv(out, "t_start", w.t_start);
    append_kv(out, "t_end", w.t_end);
    append_kv(out, "compute_cycles", d.compute_cycles);
    append_kv(out, "mem_issue_cycles", d.mem_issue_cycles);
    append_kv(out, "mem_stall_cycles", d.mem_stall_cycles);
    append_kv(out, "scalar_cycles", d.scalar_cycles);
    append_kv(out, "avg_vl", d.avg_vl());
    append_kv(out, "lane_utilization", w.lane_utilization(c.vpu.lanes));
    append_kv(out, "l1_miss_rate", d.l1_miss_rate());
    append_kv(out, "l2_miss_rate", d.l2_miss_rate());
    append_kv(out, "dram_bytes_per_cycle", w.dram_bytes_per_cycle());
    append_kv(out, "mem_bytes", d.mem_bytes);
    out += "}\n";
  }
  return out;
}

}  // namespace

TimingStats conv_simulate_no_obs(Algo algo, const ConvLayerDesc& d,
                                 const SimConfig& config) {
  return simulate_impl(algo, d, config, nullptr);
}

TimingStats conv_simulate(Algo algo, const ConvLayerDesc& d,
                          const SimConfig& config,
                          std::vector<PmuPhaseStats>* phases) {
  obs::Span span("conv_simulate");
  if (span.active()) {
    span.arg("algo", to_string(algo));
    span.arg("layer", d.to_string());
    span.arg("vlen", std::to_string(config.vpu.vlen_bits));
  }
  TimingStats stats;
  if (obs::kernprof_enabled()) {
    Pmu pmu(obs::kernprof_interval_cycles(),
            obs::kernprof_interval_overridden());
    stats = simulate_impl(algo, d, config, &pmu);
    pmu.finalize(stats);
    obs::KernProfSink::global().record(kernprof_label(algo, d, config),
                                       kernprof_block(pmu, stats, algo, config));
    if (phases != nullptr) *phases = pmu.phases();
  } else {
    stats = simulate_impl(algo, d, config, nullptr);
  }
  if (obs::metrics_enabled()) {
    // Simulated cycles per point; the matching host cost lands in the
    // span.conv_simulate.us histogram, so the report shows both sides of the
    // simulated-cycles vs host-time ratio.
    static obs::Histogram& cycles =
        obs::Registry::global().histogram("conv_simulate.cycles");
    cycles.observe(static_cast<std::uint64_t>(stats.cycles));
  }
  return stats;
}

Tensor conv_functional(Algo algo, const ConvLayerDesc& d, const Tensor& in,
                       const std::vector<float>& weights_oihw,
                       const VpuConfig& vpu, TimingStats* timing_out,
                       const SimConfig* config_in) {
  if (!algo_applicable(algo, d)) {
    throw std::invalid_argument("conv_functional: algorithm not applicable");
  }
  if (in.layout() != Layout::kNCHW || in.c() != d.ic || in.h() != d.ih ||
      in.w() != d.iw) {
    throw std::invalid_argument("conv_functional: input shape/layout mismatch");
  }
  if (weights_oihw.size() != d.weight_elems()) {
    throw std::invalid_argument("conv_functional: weight size mismatch");
  }

  SimConfig config = config_in ? *config_in : SimConfig{};
  config.vpu = vpu;
  config.mem.attach = vpu.attach;
  MemorySystem mem(config.mem);
  TimingModel timing(vpu, &mem, config.timing);
  FunctionalEngine eng(vpu, timing_out ? &timing : nullptr);

  Tensor out(d.oc, d.oh(), d.ow(), Layout::kNCHW);

  switch (algo) {
    case Algo::kDirect: {
      if (direct_uses_wide(d, vpu.mvl())) {
        const std::vector<float> in_nhwc = flatten_nhwc(in);
        const std::vector<float> w =
            reformat_weights_direct(d, weights_oihw, vpu.mvl());
        const BufView in_v = eng.bind(in_nhwc.data(), in_nhwc.size());
        const BufView w_v = eng.bind(w.data(), w.size());
        Scratch out_nhwc = eng.alloc(d.out_elems());
        conv_direct(eng, d, in_v, w_v, out_nhwc.view, config.sampler);
        // Host-side layout restore (uncharged, like the forward conversion).
        const int oh = d.oh();
        const int ow = d.ow();
        for (int c = 0; c < d.oc; ++c) {
          for (int y = 0; y < oh; ++y) {
            for (int x = 0; x < ow; ++x) {
              out.at(c, y, x) =
                  (*out_nhwc.storage)[(static_cast<std::size_t>(y) * ow + x) *
                                          d.oc +
                                      c];
            }
          }
        }
      } else {
        // Binds hoisted into statements: argument evaluation order is
        // unspecified, and the arena addresses must match conv_simulate's.
        const BufView in_v = eng.bind(in.data(), in.size());
        const BufView w_v = eng.bind(weights_oihw.data(), weights_oihw.size());
        const BufView out_v = eng.bind(out.data(), out.size());
        conv_direct(eng, d, in_v, w_v, out_v, config.sampler);
      }
      break;
    }
    case Algo::kGemm3: {
      const BufView in_v = eng.bind(in.data(), in.size());
      const BufView w_v = eng.bind(weights_oihw.data(), weights_oihw.size());
      const BufView out_v = eng.bind(out.data(), out.size());
      conv_gemm3(eng, d, in_v, w_v, out_v, config.sampler);
      break;
    }
    case Algo::kGemm6: {
      const BufView in_v = eng.bind(in.data(), in.size());
      const BufView w_v = eng.bind(weights_oihw.data(), weights_oihw.size());
      const BufView out_v = eng.bind(out.data(), out.size());
      conv_gemm6(eng, d, in_v, w_v, out_v, config.blocks, config.sampler);
      break;
    }
    case Algo::kWinograd: {
      std::vector<float> u(64ull * static_cast<std::uint64_t>(d.oc) * d.ic);
      winograd_prepare_weights(d, weights_oihw.data(), u.data());
      const BufView in_v = eng.bind(in.data(), in.size());
      const BufView u_v = eng.bind(u.data(), u.size());
      const BufView out_v = eng.bind(out.data(), out.size());
      conv_winograd(eng, d, in_v, u_v, out_v, config.sampler);
      break;
    }
  }
  if (timing_out != nullptr) *timing_out = timing.stats();
  return out;
}

}  // namespace vlacnn
