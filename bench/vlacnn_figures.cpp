// vlacnn-figures: every paper figure and table, one id each.
//
//   vlacnn-figures <id>     print the banner, then the figure or table
//   vlacnn-figures list     print every id, one per line
//
// The banner names the figure and the paper section it reproduces, and
// titles the VLACNN_REPORT files (they are named after its slug). Every path
// returns through report::run_tool, which writes the run's artifacts before
// `main` returns. The ids that plot sweep grid points read them from the
// shared sweep cache, so a warm run of those simulates nothing;
// p1_table2_blocks, wino_tilesize and vit_attention simulate their own
// configurations on every run.
//
// Exit codes: 0 success, 1 runtime failure (the error goes to stderr; a
// failed artifact write is one), 2 usage error (no id or an unknown one;
// usage goes to stderr).
#include <cstring>
#include <string>

#include "bench_common.h"
#include "report/collector.h"

namespace {

using namespace vlacnn::bench;

struct Figure {
  const char* id;
  const char* title;      ///< banner title, slugged into the report names
  const char* paper_ref;  ///< the banner's "reproduces:" line
  void (*body)();
};

// In print order: Paper II (ICPP'24), Paper I (IPDPS'23), then the studies
// beyond both.
constexpr Figure kFigures[] = {
    {"table1_layers",
     "Table 1: convolutional layers of VGG-16 and YOLOv3 (first 20)",
     "ICPP'24 Table 1", table1_layers},
    {"fig01_vgg_perlayer", "Fig 1: per-layer algorithm comparison, VGG-16",
     "ICPP'24 Fig. 1", [] { Env env; perlayer_figure(env, env.vgg16); }},
    {"fig02_yolo_perlayer",
     "Fig 2: per-layer algorithm comparison, YOLOv3 (15 conv layers)",
     "ICPP'24 Fig. 2", [] { Env env; perlayer_figure(env, env.yolo20); }},
    {"fig03_vgg_vlen", "Fig 3: vector-length scaling per layer, VGG-16",
     "ICPP'24 Fig. 3", [] { Env env; vlen_scaling_figure(env, env.vgg16); }},
    {"fig04_yolo_vlen", "Fig 4: vector-length scaling per layer, YOLOv3",
     "ICPP'24 Fig. 4", [] { Env env; vlen_scaling_figure(env, env.yolo20); }},
    {"fig05_vgg_l2_512", "Fig 5: L2 scaling per layer, VGG-16 @ 512-bit",
     "ICPP'24 Fig. 5", [] { Env env; l2_scaling_figure(env, env.vgg16, 512); }},
    {"fig06_vgg_l2_4096", "Fig 6: L2 scaling per layer, VGG-16 @ 4096-bit",
     "ICPP'24 Fig. 6",
     [] { Env env; l2_scaling_figure(env, env.vgg16, 4096); }},
    {"fig07_yolo_l2_512", "Fig 7: L2 scaling per layer, YOLOv3 @ 512-bit",
     "ICPP'24 Fig. 7",
     [] { Env env; l2_scaling_figure(env, env.yolo20, 512); }},
    {"fig08_yolo_l2_4096", "Fig 8: L2 scaling per layer, YOLOv3 @ 4096-bit",
     "ICPP'24 Fig. 8",
     [] { Env env; l2_scaling_figure(env, env.yolo20, 4096); }},
    {"fig09_vgg_selection", "Fig 9: algorithm selection on VGG-16",
     "ICPP'24 Fig. 9", [] { Env env; selection_figure(env, env.vgg16); }},
    {"fig10_yolo_selection", "Fig 10: algorithm selection on YOLOv3",
     "ICPP'24 Fig. 10", [] { Env env; selection_figure(env, env.yolo20); }},
    {"fig11_pareto_area",
     "Fig 11: performance-area Pareto, single VGG-16 instance",
     "ICPP'24 Fig. 11", fig11_pareto_area},
    {"fig12_serving",
     "Fig 12: throughput-area Pareto, co-located VGG-16 serving",
     "ICPP'24 Fig. 12", fig12_serving},
    {"rf_accuracy", "Random-forest selection accuracy", "ICPP'24 Section 4.3",
     rf_accuracy},
    {"p1_table2_blocks",
     "Paper I Table II: 6-loop vs 3-loop GEMM block sizes, decoupled RVV",
     "IPDPS'23 Table II", p1_table2_blocks},
    {"p1_table3_missrate",
     "Paper I Table III: average vector length & L2 miss rate",
     "IPDPS'23 Table III", p1_table3_missrate},
    {"p1_table4_ai",
     "Paper I Table IV: arithmetic intensity of YOLOv3 conv layers",
     "IPDPS'23 Table IV", p1_table4_ai},
    {"p1_fig6_vlen",
     "Paper I Fig 6: vector-length scaling, YOLOv3/20, decoupled RVV",
     "IPDPS'23 Fig. 6", p1_fig6_vlen},
    {"p1_fig7_l2",
     "Paper I Fig 7: L2 scaling x vector length, YOLOv3/20, decoupled RVV",
     "IPDPS'23 Fig. 7", p1_fig7_l2},
    {"p1_lanes", "Paper I: vector-lane scaling, YOLOv3/20, decoupled RVV",
     "IPDPS'23 Section VI.B(c)", p1_lanes},
    {"p1_wino_codesign", "Paper I Figs 9-10: Winograd co-design (VLEN x L2)",
     "IPDPS'23 Figs. 9-10", p1_wino_codesign},
    {"wino_accuracy",
     "Winograd F(m,3) fp32 tile-convolution error vs tile size",
     "IPDPS'23 Section IV.B", wino_accuracy},
    {"wino_tilesize",
     "Winograd tile-size ablation: F(m,3) on a 64x56x56->64 layer",
     "IPDPS'23 Section IV.B", wino_tilesize},
    {"vit_attention", "ViT self-attention co-design (extension)",
     "thesis Ch. 3 future work: vision transformers", vit_attention},
    {"serving_slo", "SLO serving: request-level latency, batching, capacity",
     "beyond ICPP'24 (workload models after Clipper NSDI'17, "
     "Clockwork OSDI'20)",
     serving_slo},
    {"fleet_policies", "Fleet routing: rr vs jsq vs p2c at 0.8 utilization",
     "beyond ICPP'24 (routing after Mitzenmacher '01, load balancing "
     "surveys)",
     fleet_policies},
};

/// `list`, or a usage error for anything that is not an id.
int list_or_usage(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "list") == 0) {
    for (const Figure& f : kFigures) std::printf("%s\n", f.id);
    return 0;
  }
  if (argc == 2) {
    std::fprintf(stderr, "vlacnn-figures: unknown id '%s'\n", argv[1]);
  }
  std::fprintf(stderr,
               "usage: %s <id>     print one paper figure or table\n"
               "       %s list     print every id\n",
               argv[0], argv[0]);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using vlacnn::report::run_tool;
  for (const Figure& f : kFigures) {
    if (argc != 2 || std::strcmp(argv[1], f.id) != 0) continue;
    return run_tool(("vlacnn-figures: " + std::string(f.id)).c_str(), [&] {
      banner(f.title, f.paper_ref);
      f.body();
      return 0;
    });
  }
  return run_tool("vlacnn-figures", [&] { return list_or_usage(argc, argv); });
}
