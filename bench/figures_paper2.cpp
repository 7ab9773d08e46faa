// The Paper II (ICPP'24) bodies beyond Figs 1-10: Table 1, the Fig 11 and
// Fig 12 Pareto studies, and the Section 4.3 random-forest accuracy. Figs
// 1-10 are one call each to the shared bodies in bench_common.cpp.
#include <optional>

#include "area/area_model.h"
#include "area/pareto.h"
#include "bench_common.h"
#include "ml/crossval.h"

namespace vlacnn::bench {

namespace {

void print_net(const Network& net) {
  std::printf("\n%s (%zu conv layers)\n", net.name().c_str(),
              net.conv_descs().size());
  std::printf("%5s %5s %5s %6s %6s %6s %3s %6s %10s\n", "layer", "IC", "OC",
              "IH/IW", "OH/OW", "KH/KW", "s", "pad", "MACs");
  int i = 1;
  for (const ConvLayerDesc& d : net.conv_descs()) {
    std::printf("%5d %5d %5d %6d %6d %6d %3d %6d %10.3e\n", i++, d.ic, d.oc,
                d.ih, d.oh(), d.kh, d.stride, d.pad,
                static_cast<double>(d.macs()));
  }
}

/// One Fig 11 point: a plan (one algorithm, or per-layer Optimal) on one
/// (vlen, L2) chip.
struct Candidate {
  std::optional<Algo> algo;  // nullopt = per-layer Optimal
  std::uint32_t vlen;
  std::uint64_t l2;
  double cycles;
  double area;
};

const char* algo_name(const std::optional<Algo>& a) {
  return a ? to_string(*a) : "Optimal";
}

}  // namespace

// Table 1: convolutional layer dimensions of VGG-16 and the first 20 layers
// (15 conv) of YOLOv3, as generated by the model builders.
void table1_layers() {
  Env env;
  print_net(env.vgg16);
  print_net(env.yolo20);
  std::printf(
      "\nnote: YOLOv3 conv #4 uses IC=32 (consistent chaining with conv #3; "
      "the paper's table prints 64 — see EXPERIMENTS.md).\n");
}

// Fig 11: performance/area trade-off and Pareto frontier for a single VGG-16
// instance on a 7 nm RVV chip — every (algorithm | Optimal) x vlen x L2
// configuration, frontier extraction, Pareto-optimal point, and the paper's
// headline cross-checks (2048-bit x 1MB knee; the area a single algorithm
// needs to match the knee's performance).
void fig11_pareto_area() {
  Env env;
  const AreaModel area;

  std::printf("\narea model: VPU+VRF fraction of core tile = ");
  for (std::uint32_t v : paper2_vlens()) {
    std::printf("%u-bit:%.0f%% ", v, area.vpu_fraction(v) * 100);
  }
  std::printf(" (paper: 28/43/60/75%%)\n");

  std::vector<Candidate> cands;
  for (std::uint32_t vlen : paper2_vlens()) {
    for (std::uint64_t l2 : paper2_l2_sizes()) {
      const double chip = area.chip_mm2(vlen, l2);
      for (Algo a : kAllAlgos) {
        cands.push_back({a, vlen, l2,
                         env.driver->network_cycles(env.vgg16, a, vlen, l2),
                         chip});
      }
      cands.push_back({std::nullopt, vlen, l2,
                       env.driver->network_optimal(env.vgg16, vlen, l2).cycles,
                       chip});
    }
  }

  std::vector<ParetoPoint> pts;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    pts.push_back({cands[i].area, cands[i].cycles, i});
  }
  const auto frontier = pareto_frontier(pts);
  const std::size_t knee = pareto_knee(pts, frontier);

  std::printf("\nall Optimal-plan points (cycles in billions):\n");
  std::printf("%-18s %9s %10s\n", "config", "area mm2", "Gcycles");
  for (const Candidate& c : cands) {
    if (c.algo) continue;
    std::printf("%4u-bit x %-6s %9.2f %10.3f\n", c.vlen,
                l2_str(c.l2).c_str(), c.area, c.cycles / 1e9);
  }

  std::printf("\nPareto frontier (area-ascending):\n");
  std::printf("%-9s %-18s %9s %10s%s\n", "plan", "config", "area mm2",
              "Gcycles", "");
  for (std::size_t i : frontier) {
    const Candidate& c = cands[i];
    std::printf("%-9s %4u-bit x %-6s %9.2f %10.3f%s\n", algo_name(c.algo),
                c.vlen, l2_str(c.l2).c_str(), c.area, c.cycles / 1e9,
                i == knee ? "   <- Pareto-optimal" : "");
  }

  // Paper cross-checks.
  const Candidate& k = cands[knee];
  std::printf("\nPareto-optimal: %s @ %u-bit x %s, %.2f mm2 "
              "(paper: Optimal @ 2048-bit x 1MB, 2.35 mm2)\n",
              algo_name(k.algo), k.vlen, l2_str(k.l2).c_str(), k.area);

  // Minimum area at which each single algorithm matches the knee performance.
  for (Algo a : kAllAlgos) {
    double best_area = -1;
    for (const Candidate& c : cands) {
      if (!c.algo || *c.algo != a) continue;
      if (c.cycles <= k.cycles && (best_area < 0 || c.area < best_area)) {
        best_area = c.area;
      }
    }
    if (best_area > 0) {
      std::printf("  %-9s matches knee performance at >= %.2f mm2 (%.2fx)\n",
                  to_string(a), best_area, best_area / k.area);
    } else {
      std::printf("  %-9s cannot match knee performance on this grid\n",
                  to_string(a));
    }
  }
}

// Fig 12: throughput/area trade-off for co-located VGG-16 instances on a
// multicore 7 nm RVV chip with static L2 partitioning, using the optimal
// algorithm per layer; plus the paper's headline comparison of Optimal vs the
// best single algorithm at the largest configuration.
void fig12_serving() {
  Env env;
  ServingSimulator sim(env.driver.get());

  const auto evals = sim.grid(env.vgg16, std::nullopt);
  std::printf("\n%zu feasible configurations "
              "(cores x vlen x shared-L2 x instances)\n",
              evals.size());

  std::vector<ParetoPoint> pts;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    pts.push_back({evals[i].area_mm2, -evals[i].images_per_cycle, i});
  }
  const auto frontier = pareto_frontier(pts);

  std::printf("\nPareto frontier (throughput in images per Mcycle):\n");
  std::printf("%6s %6s %9s %6s %9s %10s %11s %9s\n", "cores", "vlen", "L2",
              "inst", "L2/inst", "area mm2", "img/Mcycle", "img/s@2GHz");
  for (std::size_t i : frontier) {
    const ServingEval& e = evals[i];
    std::printf("%6d %6u %9s %6d %9s %10.2f %11.4f %9.1f\n", e.point.cores,
                e.point.vlen_bits, l2_str(e.point.l2_total_bytes).c_str(),
                e.point.instances, l2_str(e.point.l2_slice_bytes()).c_str(),
                e.area_mm2, e.images_per_cycle * 1e6,
                e.images_per_cycle * kClockHz);
  }

  // Shape check: frontier points co-locate the maximum instances with the
  // smallest per-instance slice (the paper's observation).
  int max_inst_points = 0;
  for (std::size_t i : frontier) {
    if (evals[i].point.instances == evals[i].point.cores) ++max_inst_points;
  }
  std::printf("\n%d/%zu frontier points use one instance per core "
              "(paper: all frontier points co-locate maximally)\n",
              max_inst_points, frontier.size());

  // Headline: at 64 cores x 4096-bit x 256MB with 64 instances, Optimal vs the
  // best single algorithm.
  const ServingPoint big{64, 4096, 256ull << 20, 64};
  const double opt = sim.evaluate(env.vgg16, big, std::nullopt).images_per_cycle;
  double best_single = 0;
  Algo best_algo = Algo::kDirect;
  for (Algo a : kAllAlgos) {
    const double t = sim.evaluate(env.vgg16, big, a).images_per_cycle;
    if (t > best_single) {
      best_single = t;
      best_algo = a;
    }
  }
  std::printf("\n64 cores x 4096-bit x 256MB, 64 instances:\n"
              "  Optimal plan: %.4f img/Mcycle\n"
              "  best single algorithm (%s): %.4f img/Mcycle\n"
              "  improvement: %.2fx  (paper: 1.16x over Direct)\n",
              opt * 1e6, to_string(best_algo), best_single * 1e6,
              opt / best_single);
}

// Random-forest algorithm-selection accuracy (ICPP'24 Section 4.3):
// 448 samples = 28 conv layers x 16 hardware configs, 12 features,
// 80/20 split + 5-fold cross-validation with shuffling, depth-10 bagged trees.
// Paper reports 92.8% mean accuracy (folds 91-96%) and <= 20.4% mean
// performance loss on the mispredicted minority.
void rf_accuracy() {
  Env env;
  const std::vector<const Network*> nets{&env.vgg16, &env.yolo20};
  const Dataset ds = build_selection_dataset(*env.driver, nets, paper2_vlens(),
                                             paper2_l2_sizes());
  std::printf("dataset: %zu samples (%zu features)\n", ds.size(),
              ds.num_features());

  ForestParams params;  // 100 trees, depth 10, bootstrap
  const CrossValResult cv = cross_validate(ds, params, 5, 2024);
  std::printf("\n5-fold cross-validation (shuffled):\n");
  for (std::size_t f = 0; f < cv.fold_accuracy.size(); ++f) {
    std::printf("  fold %zu: %.1f%%\n", f + 1, cv.fold_accuracy[f] * 100);
  }
  std::printf("  mean: %.1f%%  (paper: 92.8%%, folds 91-96%%)\n",
              cv.mean_accuracy * 100);

  // 80/20 split accuracy.
  const SplitIndices split = train_test_split(ds.size(), 0.2, 7);
  RandomForest forest;
  forest.fit(ds, split.train, params);
  std::printf("\n80/20 split test accuracy: %.1f%%\n",
              forest.accuracy(ds, split.test) * 100);

  // Misprediction cost: mean relative slowdown of predicted vs optimal on the
  // mispredicted held-out samples.
  const std::vector<int> pred = heldout_predictions(ds, params, 5, 2024);
  double loss_sum = 0;
  int mispredicted = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (pred[i] == ds.y[i]) continue;
    const SampleMeta& m = ds.meta[i];
    const Network& net = m.net == "vgg16" ? env.vgg16 : env.yolo20;
    const ConvLayerDesc d = net.conv_descs()[m.layer];
    Algo pa = kAllAlgos[static_cast<std::size_t>(pred[i]) % kAllAlgos.size()];
    if (!algo_applicable(pa, d)) pa = Algo::kGemm6;
    const double predicted =
        env.driver->get(m.net, m.layer, d, pa, m.vlen_bits, m.l2_bytes).cycles;
    const double optimal =
        env.driver
            ->get(m.net, m.layer, d, kAllAlgos[ds.y[i]], m.vlen_bits,
                  m.l2_bytes)
            .cycles;
    loss_sum += predicted / optimal - 1.0;
    ++mispredicted;
  }
  std::printf("\nmispredicted: %d/%zu (%.1f%%), mean layer slowdown when "
              "mispredicted: %.1f%%  (paper: 20.4%%)\n",
              mispredicted, ds.size(),
              100.0 * mispredicted / static_cast<double>(ds.size()),
              mispredicted ? 100.0 * loss_sum / mispredicted : 0.0);

  // Feature importances of a forest trained on everything.
  std::vector<std::size_t> all(ds.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  RandomForest full;
  full.fit(ds, all, params);
  const auto imp = full.feature_importances();
  std::printf("\nfeature importances:\n");
  for (std::size_t f = 0; f < imp.size(); ++f) {
    std::printf("  %-8s %5.1f%% %s\n", ds.feature_names[f].c_str(),
                imp[f] * 100, bar(imp[f], 30).c_str());
  }
}

}  // namespace vlacnn::bench
