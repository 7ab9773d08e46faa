// Shared infrastructure for the bench binaries: the sweep cache, the two
// evaluation networks at paper scale, table/bar printing, and the bodies of
// the figures and tables that vlacnn-figures prints.
//
// Every figure shares results/sweep_cache.csv (override with
// REPRO_RESULTS_DIR); the first run to need a grid point simulates it, the
// rest read it back, so the whole figure set costs one sweep.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "ml/crossval.h"
#include "net/models.h"
#include "serving/serving.h"
#include "sweep/sweep.h"

namespace vlacnn::bench {

/// Both papers simulate 2 GHz cores; every cycles-to-time conversion uses it.
inline constexpr double kClockHz = 2.0e9;

struct Env {
  std::unique_ptr<ResultsDb> db;
  std::unique_ptr<SweepDriver> driver;
  Network vgg16;
  Network yolo20;

  Env();
};

/// Figure/table banner with the paper reference. It also titles the
/// VLACNN_REPORT files (report::set_report_title).
void banner(const std::string& title, const std::string& paper_ref);

/// "1MB", "64MB", ...
std::string l2_str(std::uint64_t bytes);

/// Horizontal ASCII bar scaled to `frac` in [0,1].
std::string bar(double frac, int width = 40);

/// Short per-layer tag like "3x608x608->32 k3 s1".
std::string layer_tag(const ConvLayerDesc& d);

// The Paper II figure bodies below run the integrated (SVE-like) VPU with 8
// lanes, as every Paper II figure does.

/// Fig 1/2 body: per-layer execution time of all four algorithms at 512-bit
/// x 1 MB L2, with the per-layer winner marked.
void perlayer_figure(Env& env, const Network& net);

/// Fig 3/4 body: per-layer VLEN scaling (512 -> 4096 bits) for each
/// algorithm at 1 MB L2.
void vlen_scaling_figure(Env& env, const Network& net);

/// Fig 5-8 body: per-layer L2 scaling (1 -> 64 MB) for each algorithm at
/// `vlen` bits.
void l2_scaling_figure(Env& env, const Network& net, std::uint32_t vlen);

/// Fig 9/10 body: whole-network time for each single-algorithm plan vs the
/// per-layer Optimal and the random-forest Predicted Optimal, across the
/// 16-configuration grid.
void selection_figure(Env& env, const Network& net);

// The other figure bodies, one per vlacnn-figures id (the id table is in
// vlacnn_figures.cpp, which alone links the figures_*.cpp files below). Each
// runs after the banner and prints to stdout.
// Paper II (figures_paper2.cpp):
void table1_layers();
void fig11_pareto_area();
void fig12_serving();
void rf_accuracy();
// Paper I (figures_paper1.cpp):
void p1_table2_blocks();
void p1_table3_missrate();
void p1_table4_ai();
void p1_fig6_vlen();
void p1_fig7_l2();
void p1_lanes();
void p1_wino_codesign();
// Beyond both papers (figures_beyond.cpp):
void wino_accuracy();
void wino_tilesize();
void vit_attention();
void serving_slo();
void fleet_policies();

}  // namespace vlacnn::bench
