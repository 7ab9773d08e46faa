#include "bench_common.h"

#include "report/collector.h"

namespace vlacnn::bench {

Env::Env()
    : db(std::make_unique<ResultsDb>(default_results_path())),
      driver(std::make_unique<SweepDriver>(db.get())),
      vgg16(make_vgg16(224)),
      yolo20(make_yolov3(20, 608)) {}

void banner(const std::string& title, const std::string& paper_ref) {
  report::set_report_title(title);
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

std::string l2_str(std::uint64_t bytes) {
  return std::to_string(bytes >> 20) + "MB";
}

std::string bar(double frac, int width) {
  if (frac < 0) frac = 0;
  if (frac > 1) frac = 1;
  const int n = static_cast<int>(frac * width + 0.5);
  std::string s(n, '#');
  s.append(width - n, ' ');
  return s;
}

std::string layer_tag(const ConvLayerDesc& d) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%4dx%3dx%3d->%4d k%d s%d", d.ic, d.ih, d.iw,
                d.oc, d.kh, d.stride);
  return buf;
}

namespace {

const std::vector<Algo> kAlgoVec(kAllAlgos.begin(), kAllAlgos.end());

constexpr std::uint64_t kL2_1MB = 1u << 20;

}  // namespace

void perlayer_figure(Env& env, const Network& net) {
  const std::uint32_t vlen = 512;
  const std::uint64_t l2 = kL2_1MB;
  // Per-layer rows for every algorithm (gemm6 fallback where inapplicable):
  // one parallel fan-out over the full layer x algorithm block, then cheap
  // per-algorithm cache hits.
  env.driver->prefetch(net, kAlgoVec, {vlen}, {l2});
  std::vector<std::vector<SweepRow>> rows;
  for (Algo a : kAllAlgos) {
    rows.push_back(env.driver->network_rows(net, a, vlen, l2));
  }
  const std::size_t layers = rows[0].size();
  std::printf("\n%s @ %u-bit x %s  (per-layer time in ms @ 2GHz; * = winner;\n"
              " w! = winograd inapplicable, gemm6 fallback shown)\n\n",
              net.name().c_str(), vlen, l2_str(l2).c_str());
  std::printf("%5s %-26s %11s %11s %11s %11s\n", "layer", "dimensions",
              "direct", "gemm3", "gemm6", "winograd");
  for (std::size_t i = 0; i < layers; ++i) {
    double best = 1e300;
    for (std::size_t a = 0; a < kAllAlgos.size(); ++a) {
      best = std::min(best, rows[a][i].cycles);
    }
    std::printf("%5zu %-26s", i + 1, layer_tag(rows[0][i].desc).c_str());
    for (std::size_t a = 0; a < kAllAlgos.size(); ++a) {
      const bool fallback = rows[a][i].key.algo != kAllAlgos[a];
      const double ms = rows[a][i].cycles / kClockHz * 1e3;
      std::printf(" %8.2f%s%s", ms,
                  rows[a][i].cycles <= best * 1.0000001 ? "*" : " ",
                  fallback ? "w!" : "  ");
    }
    std::printf("\n");
  }
}

void vlen_scaling_figure(Env& env, const Network& net) {
  const std::vector<std::uint32_t> vlens = paper2_vlens();
  const std::uint64_t l2 = kL2_1MB;
  std::printf("\n%s, L2=%s: per-layer speedup over the %u-bit baseline\n",
              net.name().c_str(), l2_str(l2).c_str(), vlens.front());
  env.driver->prefetch(net, kAlgoVec, vlens, {l2});
  for (Algo a : kAllAlgos) {
    std::printf("\n-- %s --\n%5s %-26s", to_string(a), "layer", "dimensions");
    for (std::uint32_t v : vlens) std::printf(" %6u", v);
    std::printf("   (ms @ first vlen)\n");
    std::vector<std::vector<SweepRow>> per_vlen;
    for (std::uint32_t v : vlens) {
      per_vlen.push_back(env.driver->network_rows(net, a, v, l2));
    }
    for (std::size_t i = 0; i < per_vlen[0].size(); ++i) {
      const double base = per_vlen[0][i].cycles;
      std::printf("%5zu %-26s", i + 1,
                  layer_tag(per_vlen[0][i].desc).c_str());
      for (std::size_t vi = 0; vi < vlens.size(); ++vi) {
        std::printf(" %5.2fx", base / per_vlen[vi][i].cycles);
      }
      std::printf("   %8.2f%s\n", base / kClockHz * 1e3,
                  per_vlen[0][i].key.algo != a ? " (gemm6 fallback)" : "");
    }
  }
}

void l2_scaling_figure(Env& env, const Network& net, std::uint32_t vlen) {
  const std::vector<std::uint64_t> l2_sizes = paper2_l2_sizes();
  std::printf("\n%s, VLEN=%u-bit: per-layer speedup over the %s baseline\n",
              net.name().c_str(), vlen, l2_str(l2_sizes.front()).c_str());
  env.driver->prefetch(net, kAlgoVec, {vlen}, l2_sizes);
  for (Algo a : kAllAlgos) {
    std::printf("\n-- %s --\n%5s %-26s", to_string(a), "layer", "dimensions");
    for (std::uint64_t l2 : l2_sizes) std::printf(" %6s", l2_str(l2).c_str());
    std::printf("   (ms @ first size)\n");
    std::vector<std::vector<SweepRow>> per_l2;
    for (std::uint64_t l2 : l2_sizes) {
      per_l2.push_back(env.driver->network_rows(net, a, vlen, l2));
    }
    for (std::size_t i = 0; i < per_l2[0].size(); ++i) {
      const double base = per_l2[0][i].cycles;
      std::printf("%5zu %-26s", i + 1, layer_tag(per_l2[0][i].desc).c_str());
      for (std::size_t li = 0; li < l2_sizes.size(); ++li) {
        std::printf(" %5.2fx", base / per_l2[li][i].cycles);
      }
      std::printf("   %8.2f%s\n", base / kClockHz * 1e3,
                  per_l2[0][i].key.algo != a ? " (gemm6 fallback)" : "");
    }
  }
}

void selection_figure(Env& env, const Network& net) {
  // Train/predict on the paper's 448-point dataset (both networks, 16 configs)
  // with held-out 5-fold predictions. build_selection_dataset prefetches the
  // whole grid in parallel; the per-config loops below run on cache hits.
  const std::vector<const Network*> nets{&env.vgg16, &env.yolo20};
  const Dataset ds = build_selection_dataset(*env.driver, nets, paper2_vlens(),
                                             paper2_l2_sizes());
  ForestParams params;
  const std::vector<int> pred = heldout_predictions(ds, params, 5, 2024);

  std::printf("\n%s: whole-network conv time (s @ 2GHz) per hardware config\n",
              net.name().c_str());
  std::printf("%-18s %8s %8s %8s %8s %9s %10s %9s\n", "config", "direct",
              "gemm3", "gemm6", "wino*", "Optimal", "Predicted", "best/opt");
  for (std::uint32_t vlen : paper2_vlens()) {
    for (std::uint64_t l2 : paper2_l2_sizes()) {
      double fixed[4];
      for (std::size_t a = 0; a < kAllAlgos.size(); ++a) {
        fixed[a] = env.driver->network_cycles(net, kAllAlgos[a], vlen, l2);
      }
      const auto opt = env.driver->network_optimal(net, vlen, l2);
      // Assemble the predicted plan for this (net, config) from the held-out
      // predictions.
      std::vector<Algo> plan(net.conv_descs().size(), Algo::kGemm6);
      for (std::size_t s = 0; s < ds.size(); ++s) {
        const SampleMeta& m = ds.meta[s];
        if (m.net == net.name() && m.vlen_bits == vlen && m.l2_bytes == l2) {
          plan[m.layer] = kAllAlgos[static_cast<std::size_t>(pred[s]) %
                                    kAllAlgos.size()];
        }
      }
      const double predicted =
          env.driver->network_plan_cycles(net, plan, vlen, l2);
      char cfg[32];
      std::snprintf(cfg, sizeof(cfg), "%u-bit x %s", vlen,
                    l2_str(l2).c_str());
      double best_fixed = 1e300;
      for (double f : fixed) best_fixed = std::min(best_fixed, f);
      std::printf("%-18s %8.3f %8.3f %8.3f %8.3f %9.3f %10.3f %8.2fx\n", cfg,
                  fixed[0] / kClockHz, fixed[1] / kClockHz,
                  fixed[2] / kClockHz, fixed[3] / kClockHz,
                  opt.cycles / kClockHz, predicted / kClockHz,
                  best_fixed / opt.cycles);
    }
  }
  std::printf("(wino* = Winograd with gemm6 fallback on inapplicable layers; "
              "best/opt = best single algorithm vs per-layer Optimal)\n");
}

}  // namespace vlacnn::bench
