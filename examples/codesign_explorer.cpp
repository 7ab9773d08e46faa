// Co-design explorer: sweep vector length x L2 size for one convolutional
// layer and print the winning algorithm at every hardware point — the per-layer
// view behind the paper's co-design study, as an interactive tool.
//
//   ./examples/codesign_explorer [ic ih iw oc k stride pad]
//   (default: YOLOv3 conv #10: 128x152x152 -> 256, 3x3 s2)
#include <cstdio>
#include <stdexcept>

#include "algos/registry.h"
#include "common/env.h"
#include "core/selector.h"
#include "report/collector.h"

using namespace vlacnn;

namespace {

int run(int argc, char** argv) {
  ConvLayerDesc d{128, 152, 152, 256, 3, 3, 2, 1};
  try {
    if (argc == 8) {
      d.ic = parse_uint<int>("ic", argv[1], 1);
      d.ih = parse_uint<int>("ih", argv[2], 1);
      d.iw = parse_uint<int>("iw", argv[3], 1);
      d.oc = parse_uint<int>("oc", argv[4], 1);
      d.kh = d.kw = parse_uint<int>("k", argv[5], 1);
      d.stride = parse_uint<int>("stride", argv[6], 1);
      d.pad = parse_uint<int>("pad", argv[7]);
    } else if (argc != 1) {
      throw std::runtime_error("expected no arguments or all seven");
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\nusage: %s [ic ih iw oc k stride pad]\n",
                 e.what(), argv[0]);
    return 2;
  }
  std::printf("layer: %s  (%.1f MMACs, GEMM %llux%llux%llu)\n",
              d.to_string().c_str(), d.macs() / 1e6,
              static_cast<unsigned long long>(d.gemm_m()),
              static_cast<unsigned long long>(d.gemm_k()),
              static_cast<unsigned long long>(d.gemm_n()));

  const std::uint32_t vlens[] = {512, 1024, 2048, 4096};
  const std::uint64_t l2s[] = {1u << 20, 4u << 20, 16u << 20, 64u << 20};

  std::printf("\nwinner map (rows: vlen, cols: L2); time in ms @ 2GHz\n");
  std::printf("%10s", "");
  for (std::uint64_t l2 : l2s) {
    std::printf(" %18lluMB", static_cast<unsigned long long>(l2 >> 20));
  }
  std::printf("\n");

  HeuristicSelector heuristic;
  for (std::uint32_t vlen : vlens) {
    std::printf("%7u-bit", vlen);
    for (std::uint64_t l2 : l2s) {
      double best = 1e300;
      Algo winner = Algo::kGemm6;
      for (Algo a : kAllAlgos) {
        if (!algo_applicable(a, d)) continue;
        SimConfig c = make_sim_config(vlen, l2);
        const double cycles = conv_simulate(a, d, c).cycles;
        if (cycles < best) {
          best = cycles;
          winner = a;
        }
      }
      std::printf(" %9s %7.2fms", to_string(winner), best / 2e9 * 1e3);
    }
    std::printf("\n");
  }

  std::printf("\nheuristic selector would pick: ");
  for (std::uint32_t vlen : vlens) {
    std::printf("%u-bit:%s  ", vlen,
                to_string(heuristic.select(d, vlen, 4u << 20)));
  }
  std::printf("\n");
  return 0;
}

}  // namespace

// run_tool writes the VLACNN_* artifacts the run armed (DESIGN.md §8).
int main(int argc, char** argv) {
  return report::run_tool("codesign_explorer", [&] { return run(argc, argv); });
}
