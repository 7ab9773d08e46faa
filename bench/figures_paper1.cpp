// The Paper I (IPDPS'23) bodies: Tables II-IV, Figs 6-7, the lane study and
// the Winograd co-design of Figs 9-10. Unless a body says otherwise it runs
// YOLOv3's first 20 layers with the 3-loop im2col+GEMM on the decoupled
// RISC-VV configuration (VPU attached at L2) with 8 lanes.
#include <map>

#include "bench_common.h"
#include "net/models.h"

namespace vlacnn::bench {

// Table II: relative execution time of the 6-loop (BLIS-like) GEMM vs the
// optimized 3-loop GEMM on the first 4 convolutional layers of YOLOv3, at
// 512-bit x 1MB, for the paper's candidate block sizes. Expected shape:
// ~parity (0.90-0.98), because the decoupled VPU bypasses L1 and software
// prefetch is dropped by the RVV toolchain.
void p1_table2_blocks() {
  Env env;
  const auto descs = env.yolo20.conv_descs();
  const std::vector<ConvLayerDesc> first4(descs.begin(), descs.begin() + 4);

  SimConfig base = make_sim_config(512, 1u << 20, 8, VpuAttach::kDecoupledL2);
  double c3 = 0;
  for (const auto& d : first4) c3 += conv_simulate(Algo::kGemm3, d, base).cycles;

  const Gemm6Blocks candidates[] = {
      {128, 1024, 256}, {16, 1024, 128}, {16, 512, 128},
      {16, 512, 256},   {32, 512, 128},  {64, 1024, 128}};
  std::printf("\n%-18s %22s\n", "block sizes MxNxK", "6-loop time / 3-loop time");
  for (const Gemm6Blocks& b : candidates) {
    SimConfig cfg = base;
    cfg.blocks = b;
    double c6 = 0;
    for (const auto& d : first4) {
      c6 += conv_simulate(Algo::kGemm6, d, cfg).cycles;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "%dx%dx%d", b.block_m, b.block_n,
                  b.block_k);
    std::printf("%-18s %20.2f\n", name, c6 / c3);
  }
  std::printf("\n(paper: best 16x512x128 at 0.98 -> no benefit from BLIS "
              "blocking on the decoupled VPU)\n");
}

// Table III: consumed average vector length and L2 miss rate vs the
// configured vector length, 1 MB L2. Expected shape: near-full VL
// utilisation and a miss rate climbing from ~32% to ~79%.
void p1_table3_missrate() {
  Env env;
  std::printf("\n%8s %14s %14s\n", "vlen", "avg VL (bits)", "L2 miss rate");
  for (std::uint32_t vlen : paper1_vlens()) {
    const auto rows = env.driver->network_rows(
        env.yolo20, Algo::kGemm3, vlen, 1u << 20, 8, VpuAttach::kDecoupledL2);
    // Cycle-weighted aggregates across layers.
    double vl_bits = 0, cyc = 0, mr = 0;
    for (const SweepRow& r : rows) {
      vl_bits += r.avg_vl * 32.0 * r.cycles;
      mr += r.l2_miss_rate * r.cycles;
      cyc += r.cycles;
    }
    std::printf("%8u %14.1f %13.1f%%\n", vlen, vl_bits / cyc, mr / cyc * 100);
  }
  std::printf("\n(paper: avg VL 512->15902 of 16384; miss rate 32%% -> 79%%)\n");
}

// Table IV: arithmetic intensity of the 14 discrete convolutional layer
// shapes of full YOLOv3 (im2col+GEMM roofline view). Needs no sweep.
void p1_table4_ai() {
  const Network full = make_yolov3(-1, 608);
  // Discrete (M, N, K) combinations, keeping the first layer index for each.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, int> seen;
  int idx = 0;
  std::printf("\n%6s %6s %9s %6s %8s\n", "layer", "M", "N", "K", "AI");
  for (const ConvLayerDesc& d : full.conv_descs()) {
    ++idx;
    const auto key = std::make_tuple(d.gemm_m(), d.gemm_n(), d.gemm_k());
    if (seen.count(key)) continue;
    seen[key] = idx;
    std::printf("%6d %6llu %9llu %6llu %8.1f\n", idx,
                static_cast<unsigned long long>(d.gemm_m()),
                static_cast<unsigned long long>(d.gemm_n()),
                static_cast<unsigned long long>(d.gemm_k()),
                d.arithmetic_intensity());
  }
  std::printf("\n%zu discrete shapes (paper lists 14 for its 768x576 input; "
              "L44 M=1024 N=361 K=4608 -> AI 126)\n", seen.size());
}

// Fig 6: impact of vector length (512 -> 16384 bits), 1 MB L2. Expected
// shape: ~2.5x total, with saturation beyond 8192-bit.
void p1_fig6_vlen() {
  Env env;
  std::printf("\n%8s %12s %9s %9s\n", "vlen", "Gcycles", "speedup", "");
  double base = 0;
  for (std::uint32_t vlen : paper1_vlens()) {
    const double cycles = env.driver->network_cycles(
        env.yolo20, Algo::kGemm3, vlen, 1u << 20, 8, VpuAttach::kDecoupledL2);
    if (base == 0) base = cycles;
    std::printf("%8u %12.3f %8.2fx %s\n", vlen, cycles / 1e9, base / cycles,
                bar(base / cycles / 3.0, 30).c_str());
  }
  std::printf("\n(paper: 2.5x from 512 to 16384-bit, saturating beyond "
              "8192-bit at 1MB L2)\n");
}

// Fig 7: impact of L2 size (1 -> 256 MB) for each vector length. Expected
// shape: 1.5-1.9x from the L2 sweep, ~5x total vs 512-bit x 1MB, with the
// longest vectors benefiting most from large caches.
void p1_fig7_l2() {
  Env env;
  std::printf("\n%8s", "vlen");
  for (std::uint64_t l2 : paper1_l2_sizes()) {
    std::printf(" %9s", l2_str(l2).c_str());
  }
  std::printf("   %s\n", "L2-gain   total-gain-vs-512x1MB");
  double base512 = 0;
  for (std::uint32_t vlen : paper1_vlens()) {
    std::printf("%8u", vlen);
    double first = 0, last = 0;
    for (std::uint64_t l2 : paper1_l2_sizes()) {
      const double cycles = env.driver->network_cycles(
          env.yolo20, Algo::kGemm3, vlen, l2, 8, VpuAttach::kDecoupledL2);
      if (first == 0) first = cycles;
      if (base512 == 0) base512 = cycles;
      last = cycles;
      std::printf(" %8.2fG", cycles / 1e9);
    }
    std::printf("   %5.2fx %9.2fx\n", first / last, base512 / last);
  }
  std::printf("\n(paper: larger L2 gives 1.5x-1.9x; best total ~5x; 16384-bit "
              "gains only ~5%% over 8192-bit at 256MB)\n");
}

// Section VI.B(c): impact of the number of vector lanes (2 -> 8) for
// different vector lengths, 1 MB L2. Expected shape: ~1.25x for 8192-bit;
// 512-bit saturates beyond 4 lanes.
void p1_lanes() {
  Env env;
  std::printf("\n%8s %8s %12s %10s\n", "vlen", "lanes", "Gcycles",
              "vs 2 lanes");
  for (std::uint32_t vlen : {512u, 2048u, 8192u}) {
    double base = 0;
    for (std::uint32_t lanes : {2u, 4u, 8u}) {
      const double cycles = env.driver->network_cycles(
          env.yolo20, Algo::kGemm3, vlen, 1u << 20, lanes,
          VpuAttach::kDecoupledL2);
      if (base == 0) base = cycles;
      std::printf("%8u %8u %12.3f %9.2fx\n", vlen, lanes, cycles / 1e9,
                  base / cycles);
    }
  }
  std::printf("\n(paper: ~1.25x for 8192-bit from 2 to 8 lanes; 512-bit "
              "saturates beyond 4 lanes)\n");
}

// Figs 9-10: Winograd co-design — vector length (512 -> 2048 bits) and L2
// size (1 -> 256 MB) on YOLOv3/20 and VGG-16, integrated (SVE-like) VPU,
// Winograd on 3x3 stride-1 layers with im2col+GEMM fallback elsewhere.
// Expected shape: ~1.4x from 2048-bit vectors; VGG-16 (all-Winograd) stops
// benefiting from caches beyond 64MB, YOLOv3 (with GEMM fallback layers)
// keeps benefiting.
void p1_wino_codesign() {
  Env env;
  for (const Network* net : {&env.yolo20, &env.vgg16}) {
    std::printf("\n%s (Winograd + gemm6 fallback):\n%8s", net->name().c_str(),
                "vlen");
    for (std::uint64_t l2 : paper1_l2_sizes()) {
      std::printf(" %9s", l2_str(l2).c_str());
    }
    std::printf("   gain(L2)  gain(vlen@1MB)\n");
    double base_vlen = 0;
    for (std::uint32_t vlen : {512u, 1024u, 2048u}) {
      std::printf("%8u", vlen);
      double first = 0, last = 0;
      for (std::uint64_t l2 : paper1_l2_sizes()) {
        const double cycles = env.driver->network_cycles(
            *net, Algo::kWinograd, vlen, l2, 8, VpuAttach::kIntegratedL1);
        if (first == 0) first = cycles;
        if (base_vlen == 0) base_vlen = cycles;
        last = cycles;
        std::printf(" %8.2fG", cycles / 1e9);
      }
      std::printf("   %6.2fx %9.2fx\n", first / last, base_vlen / first);
    }
  }
  std::printf("\n(paper: 1.4x from 512->2048-bit at 1MB; YOLOv3 1.75x and "
              "VGG16 1.4x from the L2 sweep, VGG16 flat beyond 64MB)\n");
}

}  // namespace vlacnn::bench
