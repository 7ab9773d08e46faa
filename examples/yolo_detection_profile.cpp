// Object-detection scenario (the paper's motivating YOLOv3 workload):
//
//  1. run a scaled-down YOLOv3 numerically end to end (all 107-layer
//     machinery: conv, shortcut, route, upsample, detection heads) to show the
//     substrate works as a network, and
//  2. profile the paper-scale first-20-layers prefix on a simulated 1024-bit
//     RVV core, comparing a single-algorithm plan against per-layer heuristic
//     selection.
//
//   ./examples/yolo_detection_profile
#include <cstdio>

#include "common/rng.h"
#include "core/selector.h"
#include "net/models.h"
#include "net/runner.h"
#include "report/collector.h"

using namespace vlacnn;

namespace {

int run() {
  // --- 1. functional end-to-end inference on a 96x96 input ---------------
  const Network small = make_yolov3(-1, 96);
  std::printf("yolov3 @ 96x96: %zu layers, %zu conv\n", small.layers().size(),
              small.conv_descs().size());
  const NetWeights weights = make_random_weights(small, 2024);
  Rng rng(7);
  Tensor image(3, 96, 96);
  image.fill_random(rng, 0.0f, 1.0f);

  HeuristicSelector selector;
  std::vector<Algo> plan;
  for (const ConvLayerDesc& d : small.conv_descs()) {
    plan.push_back(selector.select(d, 1024, 4u << 20));
  }
  const Tensor detections =
      run_inference(small, weights, image, plan, VpuConfig{1024, 8});
  std::printf("final detection head output: %dx%dx%d (stride-8 head)\n",
              detections.c(), detections.h(), detections.w());

  // --- 2. paper-scale profile of the first 20 layers ---------------------
  const Network net = make_yolov3(20, 608);
  SimConfig config = make_sim_config(1024, 4u << 20);

  const auto gemm_plan = uniform_plan(net, Algo::kGemm6);
  std::vector<Algo> selected;
  for (const ConvLayerDesc& d : net.conv_descs()) {
    selected.push_back(selector.select(d, 1024, 4u << 20));
  }

  const NetworkTiming fixed = profile_network(net, config, gemm_plan);
  const NetworkTiming tuned = profile_network(net, config, selected);

  std::printf("\nper-layer profile @ 1024-bit x 4MB (ms @ 2GHz):\n");
  std::printf("%5s %-28s %10s | %-9s %10s\n", "conv", "dimensions", "gemm6",
              "selected", "time");
  const std::vector<ConvLayerDesc> descs = net.conv_descs();
  for (std::size_t i = 0; i < fixed.conv_layers.size(); ++i) {
    const std::string dims = descs[i].to_string().substr(0, 28);
    std::printf("%5zu %-28s %8.2f   | %-9s %8.2f\n", i + 1, dims.c_str(),
                fixed.conv_layers[i].stats.cycles / 2e9 * 1e3,
                to_string(tuned.conv_layers[i].algo),
                tuned.conv_layers[i].stats.cycles / 2e9 * 1e3);
  }
  std::printf("\ntotal: gemm6-everywhere %.1f ms, per-layer selection %.1f ms "
              "(%.2fx)\n",
              fixed.total_cycles / 2e9 * 1e3, tuned.total_cycles / 2e9 * 1e3,
              fixed.total_cycles / tuned.total_cycles);
  return 0;
}

}  // namespace

// run_tool writes the VLACNN_* artifacts the run armed (DESIGN.md §8).
int main() { return report::run_tool("yolo_detection_profile", run); }
