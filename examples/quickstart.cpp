// Quickstart: the ConvEngine front door in ~60 lines.
//
// Builds a convolutional layer, runs it numerically with each of the four
// algorithms (validating against the scalar reference), asks the engine for
// per-algorithm cycle estimates on the configured vector architecture, and
// lets the selector pick.
//
//   ./examples/quickstart
#include <cstdio>

#include "algos/reference.h"
#include "core/conv_engine.h"
#include "common/rng.h"
#include "report/collector.h"

using namespace vlacnn;

namespace {

int run() {
  // A mid-network layer: 32 -> 32 channels, 28x28, 3x3 stride 1.
  const ConvLayerDesc layer{32, 28, 28, 32, 3, 3, 1, 1};
  std::printf("layer: %s  (%.1f MMACs)\n", layer.to_string().c_str(),
              layer.macs() / 1e6);

  // Target architecture: 1024-bit vectors, 8 lanes, 4 MB L2.
  ConvEngine engine(VpuConfig{1024, 8, VpuAttach::kIntegratedL1}, 4u << 20);

  // Synthetic input and weights.
  Rng rng(42);
  Tensor input(layer.ic, layer.ih, layer.iw);
  input.fill_random(rng);
  std::vector<float> weights(layer.weight_elems());
  fill_uniform(rng, weights.data(), weights.size(), -1.0f, 1.0f);

  // Ground truth.
  const Tensor reference = conv_reference(layer, input, weights);

  std::printf("\n%-10s %12s %14s %12s\n", "algorithm", "max |err|",
              "est. cycles", "est. time");
  for (Algo algo : kAllAlgos) {
    if (!algo_applicable(algo, layer)) continue;
    const Tensor out = engine.run(layer, input, weights, algo);
    const TimingStats est = engine.estimate(layer, algo);
    std::printf("%-10s %12.2e %14.0f %10.3f ms\n", to_string(algo),
                max_abs_diff(reference, out), est.cycles,
                est.cycles / 2.0e9 * 1e3);  // 2 GHz clock
  }

  const Algo chosen = engine.choose(layer);
  std::printf("\nselector picks: %s\n", to_string(chosen));
  const Tensor out = engine.run(layer, input, weights);  // auto-selected
  std::printf("auto-run max |err| vs reference: %.2e\n",
              max_abs_diff(reference, out));
  return 0;
}

}  // namespace

// run_tool writes the VLACNN_* artifacts the run armed (DESIGN.md §8).
int main() { return report::run_tool("quickstart", run); }
