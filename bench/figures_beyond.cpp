// The bodies beyond both papers' figures: the Winograd tile-size ablations
// behind Paper I Section IV.B, the ViT attention study the thesis names as
// future work, and the request-level serving and fleet-routing studies built
// on the Fig-12 cycle model.
//
// The serving studies are simulated cycles from seeded arrival processes:
// two runs with the same seeds print byte-identical numbers at any
// VLACNN_THREADS.
#include <cinttypes>
#include <cmath>

#include "algos/reference.h"
#include "algos/registry.h"
#include "algos/winograd.h"
#include "attention/attention.h"
#include "bench_common.h"
#include "common/rng.h"
#include "serving/fleet.h"
#include "serving/request_sim.h"
#include "wino/transforms.h"

namespace vlacnn::bench {

using namespace vlacnn::serving;

namespace {

double simulate_tile(const ConvLayerDesc& d, int m, std::uint32_t vlen) {
  SimConfig config = make_sim_config(vlen, 1u << 20);
  MemorySystem mem(config.mem);
  TimingModel timing(config.vpu, &mem, config.timing);
  TraceEngine eng(config.vpu, &timing);
  const int n = m + 2;
  const BufView in = eng.bind(nullptr, d.in_elems());
  const BufView u = eng.bind(
      nullptr, static_cast<std::uint64_t>(n) * n * d.oc * d.ic);
  const BufView out = eng.bind(nullptr, d.out_elems());
  conv_winograd(eng, d, in, u, out, config.sampler, m);
  return timing.stats().cycles;
}

float layer_error(const ConvLayerDesc& d, int m) {
  Rng rng(5);
  Tensor in(d.ic, d.ih, d.iw);
  in.fill_random(rng);
  std::vector<float> w(d.weight_elems());
  fill_uniform(rng, w.data(), w.size(), -1.0f, 1.0f);
  const Tensor ref = conv_reference(d, in, w);

  const int n = m + 2;
  std::vector<float> u(static_cast<std::size_t>(n) * n * d.oc * d.ic);
  winograd_prepare_weights(d, w.data(), u.data(), m);
  VpuConfig vpu{512, 8, VpuAttach::kIntegratedL1};
  FunctionalEngine eng(vpu);
  Tensor out(d.oc, d.oh(), d.ow());
  const BufView in_v = eng.bind(in.data(), in.size());
  const BufView u_v = eng.bind(u.data(), u.size());
  const BufView out_v = eng.bind(out.data(), out.size());
  conv_winograd(eng, d, in_v, u_v, out_v, Sampler{}, m);
  return max_abs_diff(ref, out) / (max_abs(ref) + 1e-9f);
}

void print_row(const char* label, const ServingStats& s) {
  std::printf("%-16s %8.0f %8.0f %8.0f %8.0f %7.2f %6.1f%% %9.2f %7.2f%%\n",
              label, ServingStats::ms(s.p50, kClockHz),
              ServingStats::ms(s.p95, kClockHz),
              ServingStats::ms(s.p99, kClockHz),
              ServingStats::ms(s.p999, kClockHz), s.mean_batch,
              s.utilization * 100.0, s.throughput_rps(kClockHz),
              s.slo_attainment * 100.0);
}

void print_row(const char* label, const FleetStats& s) {
  std::printf("%-6s %8.0f %8.0f %8.0f %8.0f %7.2f %6.1f%% %8.2f %7.2f%%\n",
              label, ServingStats::ms(s.fleet.p50, kClockHz),
              ServingStats::ms(s.fleet.p95, kClockHz),
              ServingStats::ms(s.fleet.p99, kClockHz),
              ServingStats::ms(s.fleet.p999, kClockHz), s.fleet.mean_batch,
              s.fleet.utilization * 100.0, s.fleet.throughput_rps(kClockHz),
              s.fleet.slo_attainment * 100.0);
}

}  // namespace

// Winograd tile-size ablation (Paper I Section IV.B motivation): numerical
// error of F(m,3) tile convolution in fp32 grows with the tile size, which is
// why the implementation pins tiles at 8x8 (m=6) and scales to long vectors
// via inter-tile channel parallelism instead of larger tiles.
void wino_accuracy() {
  std::printf("%6s %10s %12s %12s\n", "m", "tile", "mean err", "max err");
  for (int m : {2, 4, 6}) {
    const WinogradTransform& t = winograd_transform(m);
    const int n = t.n();
    Rng rng(77);
    double sum = 0, worst = 0;
    const int trials = 2000;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<float> d(static_cast<std::size_t>(n) * n);
      float g[9];
      for (auto& v : d) v = rng.uniform(-1, 1);
      for (auto& v : g) v = rng.uniform(-1, 1);
      std::vector<float> vt(d.size()), ut(d.size()), mt(d.size());
      wino_transform_input(t, d.data(), vt.data());
      wino_transform_weight(t, g, ut.data());
      for (int i = 0; i < n * n; ++i) mt[i] = ut[i] * vt[i];
      std::vector<float> y(static_cast<std::size_t>(m) * m);
      wino_transform_output(t, mt.data(), y.data());
      for (int oy = 0; oy < m; ++oy) {
        for (int ox = 0; ox < m; ++ox) {
          double expect = 0;
          for (int ky = 0; ky < 3; ++ky) {
            for (int kx = 0; kx < 3; ++kx) {
              expect += static_cast<double>(g[ky * 3 + kx]) *
                        d[static_cast<std::size_t>(oy + ky) * n + ox + kx];
            }
          }
          const double e = std::fabs(y[oy * m + ox] - expect);
          sum += e;
          worst = std::max(worst, e);
        }
      }
    }
    std::printf("%6d %7dx%-2d %12.3e %12.3e\n", m, n, n,
                sum / (trials * m * m), worst);
  }
  std::printf("\n(error grows with m: larger tiles are numerically unsafe in "
              "fp32, hence the fixed 8x8 tile + inter-tile parallelism)\n");
}

// Winograd tile-size ablation at the *layer* level (the design decision behind
// Paper I Section IV.B): for F(2,3), F(4,3), F(6,3), simulate a representative
// 3x3 stride-1 layer across vector lengths and measure the fp32 output error —
// the arithmetic-reduction / numerical-accuracy trade that pins the papers'
// implementation to 8x8 tiles (m=6).
void wino_tilesize() {
  std::printf("(cycles simulated at 1MB L2; error measured functionally on a "
              "16x20x20->8 layer)\n\n");
  const ConvLayerDesc d{64, 56, 56, 64, 3, 3, 1, 1};
  const ConvLayerDesc d_err{16, 20, 20, 8, 3, 3, 1, 1};
  std::printf("%4s %6s %14s %14s %14s %12s\n", "m", "tile", "cycles@512",
              "cycles@1024", "cycles@2048", "rel. error");
  for (int m : {2, 4, 6}) {
    std::printf("%4d %4dx%-2d %14.4g %14.4g %14.4g %12.2e\n", m, m + 2, m + 2,
                simulate_tile(d, m, 512), simulate_tile(d, m, 1024),
                simulate_tile(d, m, 2048), layer_error(d_err, m));
  }
  std::printf(
      "\n(m=6 minimises cycles — 5.06x fewer tuple multiplies than direct vs "
      "2.25x for m=2 — at the cost of ~100x the fp32 error of m=2; larger "
      "tiles would be numerically unsafe, so the papers scale Winograd to "
      "long vectors via inter-tile channel parallelism instead)\n");
}

// ViT self-attention co-design exploration — the thesis's future-work
// direction made concrete: sweep vector length x L2 for a ViT-Base-shaped
// self-attention layer and compare its VLEN scaling against a CNN conv layer
// of similar FLOPs, quantifying the "skinny and irregular matrices" effect the
// thesis conclusion describes.
void vit_attention() {
  // ViT-Base at 224x224: 196 tokens, dim 768, 12 heads (head_dim 64).
  const AttentionDesc vit{196, 768, 12};
  std::printf("\nlayer: seq=%d dim=%d heads=%d (head_dim %d), %.2f GFLOP\n",
              vit.seq_len, vit.dim, vit.heads, vit.head_dim(),
              vit.flops() / 1e9);

  std::printf("\n%8s", "vlen");
  for (std::uint64_t l2 : paper2_l2_sizes()) {
    std::printf(" %9s", l2_str(l2).c_str());
  }
  std::printf("   speedup-vs-512 @1MB\n");
  double base = 0;
  for (std::uint32_t vlen : paper1_vlens()) {
    std::printf("%8u", vlen);
    double first = 0;
    for (std::uint64_t l2 : paper2_l2_sizes()) {
      SimConfig c = make_sim_config(vlen, l2);
      const double cycles = attention_simulate(vit, c).cycles;
      if (first == 0) first = cycles;
      if (base == 0) base = cycles;
      std::printf(" %8.2fM", cycles / 1e6);
    }
    std::printf("   %5.2fx\n", base / first);
  }

  // The headline comparison: attention's skinny matrices (196-token panels,
  // head_dim 64 inner dimension) stop filling very long registers, while a
  // conv layer's im2col GEMM with tens of thousands of columns keeps scaling.
  const ConvLayerDesc conv{256, 28, 28, 512, 3, 3, 1, 1};  // ~0.93 GMAC
  double conv512 = 0, conv16k = 0, att512 = 0, att16k = 0;
  {
    SimConfig c = make_sim_config(512, 4u << 20);
    conv512 = conv_simulate(Algo::kGemm6, conv, c).cycles;
    att512 = attention_simulate(vit, c).cycles;
  }
  {
    SimConfig c = make_sim_config(16384, 4u << 20);
    conv16k = conv_simulate(Algo::kGemm6, conv, c).cycles;
    att16k = attention_simulate(vit, c).cycles;
  }
  std::printf("\n512 -> 16384-bit scaling @4MB: attention %.2fx vs conv GEMM "
              "%.2fx\n",
              att512 / att16k, conv512 / conv16k);
  std::printf("(the thesis's motivation for data-reuse/fusion work on ViTs: "
              "beyond ~6144-bit registers the 196-token panels and 64-wide "
              "head matmuls leave lanes idle while dense conv GEMMs keep "
              "scaling)\n");
}

// Request-level serving under SLOs. The paper's Fig-12 study reports
// steady-state throughput/area; this layers the discrete-event request
// simulator (src/serving/request_sim.h) on the same cycle model to ask what
// users actually see — tail latency and SLO attainment under bursty Poisson
// load — and what the cheapest chip is that carries a target load within a
// deadline.
void serving_slo() {
  Env env;

  // Fixed chip for the policy study: 16 cores x 2048-bit x 64MB shared L2,
  // one VGG-16 instance per core (4MB exclusive slice each) — a mid-grid
  // Pareto point of the Fig-12 study.
  const ServingPoint chip{16, 2048, 64ull << 20, 16};
  const BatchCostModel cost = batch_cost_model(
      *env.driver, env.vgg16, chip.vlen_bits, chip.l2_slice_bytes(),
      std::nullopt);
  const double cap_rps =
      static_cast<double>(chip.instances) / cost.first_image_cycles * kClockHz;
  std::printf("\nchip: %d cores x %u-bit x %s shared L2, %d instances\n",
              chip.cores, chip.vlen_bits, l2_str(chip.l2_total_bytes).c_str(),
              chip.instances);
  std::printf("cost model: first image %.0f cycles (%.2f ms), marginal %.0f "
              "cycles (%.2f ms)\n",
              cost.first_image_cycles,
              ServingStats::ms(cost.first_image_cycles, kClockHz),
              cost.marginal_image_cycles,
              ServingStats::ms(cost.marginal_image_cycles, kClockHz));
  std::printf("no-batch capacity %.1f req/s; offering 80%% of that\n", cap_rps);

  const double load_rps = 0.8 * cap_rps;
  const std::uint64_t kRequests = 4000;
  const std::uint64_t kSeed = 42;
  // The simulated VGG-16 runs at seconds-per-image on this grid (the cycle
  // model is compute-bound end to end), so SLOs live in that regime too.
  const double slo_ms = 4000.0;

  RequestSimConfig rc;
  rc.instances = chip.instances;
  rc.cost = cost;
  rc.slo_cycles = slo_ms * 1e-3 * kClockHz;

  ArrivalSpec as;
  as.kind = ArrivalSpec::Kind::kPoisson;
  as.mean_interarrival_cycles = kClockHz / load_rps;
  as.requests = kRequests;

  std::printf("\nPoisson load, %" PRIu64 " requests, %.0f ms SLO:\n",
              kRequests, slo_ms);
  std::printf("%-16s %8s %8s %8s %8s %7s %7s %9s %8s\n", "policy", "p50ms",
              "p95ms", "p99ms", "p999ms", "batch", "util", "req/s", "SLO");
  const BatchPolicySpec policies[] = {
      {BatchPolicySpec::Kind::kNoBatch, 1, 0},
      {BatchPolicySpec::Kind::kMaxBatch, 4, 0},
      {BatchPolicySpec::Kind::kAdaptive, 4, 2e8},   // 100 ms flush
      {BatchPolicySpec::Kind::kAdaptive, 4, 2e9},   // 1 s flush
  };
  for (const BatchPolicySpec& ps : policies) {
    const auto arrivals = make_arrivals(as, kSeed);
    const auto policy = make_policy(ps);
    const ServingStats s = simulate_requests(rc, *arrivals, *policy);
    print_row(policy->name().c_str(), s);
  }

  // Closed-loop saturation: 64 clients with zero think time track the service
  // rate instead of outrunning it — the sustained-throughput view.
  {
    ArrivalSpec cl;
    cl.kind = ArrivalSpec::Kind::kClosedLoop;
    cl.clients = 64;
    cl.think_cycles = 0;
    cl.requests = kRequests;
    const auto arrivals = make_arrivals(cl, kSeed);
    const auto policy =
        make_policy({BatchPolicySpec::Kind::kMaxBatch, 4, 0});
    const ServingStats s = simulate_requests(rc, *arrivals, *policy);
    std::printf("\nclosed loop, 64 clients, maxbatch4: %.2f req/s sustained "
                "at %.1f%% utilization (mean batch %.2f)\n",
                s.throughput_rps(kClockHz), s.utilization * 100.0,
                s.mean_batch);
  }

  // Capacity planning headline: cheapest Fig-12 configuration that carries
  // 20 req/s of Poisson VGG-16 traffic with 99% of requests inside 4 s.
  CapacityPlanner planner(env.driver.get());
  CapacityQuery q;
  q.load_rps = 20;
  q.slo_ms = 4000;
  q.attainment_target = 0.99;
  q.requests = 2000;
  q.seed = kSeed;
  q.policy = {BatchPolicySpec::Kind::kAdaptive, 8, 2e6};

  const auto candidates = planner.evaluate_grid(env.vgg16, q, std::nullopt);
  std::size_t feasible = 0;
  for (const auto& c : candidates) feasible += c.meets_slo ? 1 : 0;
  std::printf("\ncapacity plan: %.0f req/s, %.0f ms SLO at p%.1f\n",
              q.load_rps, q.slo_ms, q.attainment_target * 100.0);
  std::printf("%zu/%zu grid configurations meet the SLO\n", feasible,
              candidates.size());
  const auto best = CapacityPlanner::cheapest(candidates);
  if (best.has_value()) {
    const ServingEval& e = best->eval;
    std::printf("cheapest: %d cores x %u-bit x %s shared L2, %d instances "
                "= %.2f mm2\n",
                e.point.cores, e.point.vlen_bits,
                l2_str(e.point.l2_total_bytes).c_str(), e.point.instances,
                e.area_mm2);
    std::printf("  p50 %.2f ms, p99 %.2f ms, p99.9 %.2f ms, attainment "
                "%.2f%%, utilization %.1f%%\n",
                ServingStats::ms(best->stats.p50, kClockHz),
                ServingStats::ms(best->stats.p99, kClockHz),
                ServingStats::ms(best->stats.p999, kClockHz),
                best->stats.slo_attainment * 100.0,
                best->stats.utilization * 100.0);
  } else {
    std::printf("no grid configuration meets the SLO\n");
  }
}

// Front-end routing policy shoot-out for multi-chip fleet serving
// (src/serving/fleet.h, DESIGN.md §15). The ICPP'24 study sizes one chip;
// model serving deploys many. This fixes a four-chip fleet under the paper's
// VGG-16 + YOLOv3 traffic mix at ~0.8 utilization — where routing quality
// actually shows up in the tail — and compares round-robin,
// join-shortest-queue, and power-of-two-choices on p99/p99.9 latency and SLO
// attainment, all on the same seeded arrival stream. Small chips on purpose:
// with few servers per chip, one bad routing decision is a whole service
// time of queueing, which is where policies separate. A second table shows
// the batching interaction — load-aware routing concentrates arrivals into
// larger batches, which can invert the ranking.
void fleet_policies() {
  Env env;

  // Four identical small chips (2 cores x 2048-bit x 8MB shared L2, one
  // instance per core), every chip hosting both models — the homogeneous
  // full-replication baseline, so latency differences are routing, not
  // placement. Eight servers fleet-wide keeps queueing real at 0.8
  // utilization; a 64-instance fleet at the same fraction almost never
  // queues and every policy ties.
  const ServingPoint point{2, 2048, 8ull << 20, 2};
  const int kChips = 4;
  const BatchCostModel vgg_cost = batch_cost_model(
      *env.driver, env.vgg16, point.vlen_bits, point.l2_slice_bytes(),
      std::nullopt);
  const BatchCostModel yolo_cost = batch_cost_model(
      *env.driver, env.yolo20, point.vlen_bits, point.l2_slice_bytes(),
      std::nullopt);

  FleetTrafficMix mix;
  mix.names = {"vgg16", "yolo20"};
  mix.shares = {0.7, 0.3};
  mix.seed = 42;

  // No-batch fleet capacity under the mix-weighted service time; offer 80%.
  const double weighted_first =
      0.7 * vgg_cost.first_image_cycles + 0.3 * yolo_cost.first_image_cycles;
  const double cap_rps =
      static_cast<double>(kChips * point.instances) / weighted_first *
      kClockHz;
  const double load_rps = 0.8 * cap_rps;
  const std::uint64_t kRequests = 4000;
  const std::uint64_t kSeed = 42;
  const double slo_ms = 15000.0;

  std::printf("\nfleet: %d x (%d cores x %u-bit x %s shared L2, %d "
              "instances), full replication\n",
              kChips, point.cores, point.vlen_bits,
              l2_str(point.l2_total_bytes).c_str(), point.instances);
  std::printf("mix %s; vgg16 first image %.2f ms, yolo20 %.2f ms\n",
              mix.to_string().c_str(),
              ServingStats::ms(vgg_cost.first_image_cycles, kClockHz),
              ServingStats::ms(yolo_cost.first_image_cycles, kClockHz));
  std::printf("no-batch fleet capacity %.1f req/s; offering 80%% = %.1f "
              "req/s, %" PRIu64 " requests, %.0f ms SLO\n",
              cap_rps, load_rps, kRequests, slo_ms);

  FleetConfig fc;
  for (int c = 0; c < kChips; ++c) {
    FleetChip chip;
    chip.spec.point = point;
    chip.costs = {vgg_cost, yolo_cost};
    fc.chips.push_back(chip);
  }
  fc.mix = mix;
  fc.policy = {BatchPolicySpec::Kind::kNoBatch, 1, 0};
  fc.slo_cycles = slo_ms * 1e-3 * kClockHz;
  fc.router_hop_cycles = 2e6;  // 1 ms front-end network hop

  ArrivalSpec as;
  as.kind = ArrivalSpec::Kind::kPoisson;
  as.mean_interarrival_cycles = kClockHz / load_rps;
  as.requests = kRequests;

  const RouterSpec routers[] = {
      {RouterSpec::Kind::kRoundRobin, 1},
      {RouterSpec::Kind::kJoinShortestQueue, 1},
      {RouterSpec::Kind::kPowerOfTwo, 1},
  };
  const char* names[] = {"rr", "jsq", "p2c"};

  std::printf("\nno batching (pure routing signal):\n");
  std::printf("%-6s %8s %8s %8s %8s %7s %7s %8s %8s\n", "router", "p50ms",
              "p95ms", "p99ms", "p999ms", "batch", "util", "req/s", "SLO");
  FleetStats jsq_stats, rr_stats;
  for (std::size_t i = 0; i < 3; ++i) {
    fc.router = routers[i];
    const auto arrivals = make_arrivals(as, kSeed);
    const FleetStats s = simulate_fleet(fc, *arrivals);
    print_row(names[i], s);
    if (i == 0) rr_stats = s;
    if (i == 1) jsq_stats = s;
  }
  if (jsq_stats.fleet.p99 > 0) {
    std::printf("rr p99 / jsq p99 = %.2fx\n",
                rr_stats.fleet.p99 / jsq_stats.fleet.p99);
  }

  // Tail sensitivity to load: the policy gap opens as utilization climbs.
  std::printf("\np99 (ms) vs offered load, no batching:\n");
  std::printf("%-6s", "router");
  const double fracs[] = {0.5, 0.7, 0.8, 0.9};
  for (double f : fracs) std::printf(" %7.0f%%", f * 100.0);
  std::printf("\n");
  for (std::size_t i = 0; i < 3; ++i) {
    fc.router = routers[i];
    std::printf("%-6s", names[i]);
    for (double f : fracs) {
      ArrivalSpec a2 = as;
      a2.mean_interarrival_cycles = kClockHz / (f * cap_rps);
      const auto arrivals = make_arrivals(a2, kSeed);
      const FleetStats s = simulate_fleet(fc, *arrivals);
      std::printf(" %8.0f", ServingStats::ms(s.fleet.p99, kClockHz));
    }
    std::printf("\n");
  }

  // The batching interaction: adaptive batching (max 4, 100 ms flush) turns
  // routing concentration into batch formation. Load-aware policies that
  // funnel consecutive arrivals to the same chip grow batches — good for
  // throughput, but every extra image adds its marginal cycles to the whole
  // batch's completion, so at sub-saturation load it is pure tail inflation.
  fc.policy = {BatchPolicySpec::Kind::kAdaptive, 4, 2e8};
  std::printf("\nadaptive batching, max 4, 100 ms flush (same load):\n");
  std::printf("%-6s %8s %8s %8s %8s %7s %7s %8s %8s\n", "router", "p50ms",
              "p95ms", "p99ms", "p999ms", "batch", "util", "req/s", "SLO");
  for (std::size_t i = 0; i < 3; ++i) {
    fc.router = routers[i];
    const auto arrivals = make_arrivals(as, kSeed);
    const FleetStats s = simulate_fleet(fc, *arrivals);
    print_row(names[i], s);
  }

  // Heterogeneous silicon — the fleet planner's actual output shape. Two
  // small chips plus one 16-instance chip: round-robin deals each chip an
  // equal share, so the small chips run far above their fair utilization
  // while the big one idles. Load-aware policies are what make mixed
  // compositions usable at all.
  {
    const ServingPoint big{16, 2048, 64ull << 20, 16};  // same 4MB L2 slice
    FleetConfig hc;
    for (int c = 0; c < 2; ++c) {
      FleetChip chip;
      chip.spec.point = point;
      chip.costs = {vgg_cost, yolo_cost};
      hc.chips.push_back(chip);
    }
    FleetChip big_chip;
    big_chip.spec.point = big;
    big_chip.costs = {vgg_cost, yolo_cost};
    hc.chips.push_back(big_chip);
    hc.mix = mix;
    hc.policy = {BatchPolicySpec::Kind::kNoBatch, 1, 0};
    hc.slo_cycles = fc.slo_cycles;
    hc.router_hop_cycles = fc.router_hop_cycles;

    const double het_cap =
        static_cast<double>(2 * point.instances + big.instances) /
        weighted_first * kClockHz;
    ArrivalSpec ha = as;
    ha.mean_interarrival_cycles = kClockHz / (0.8 * het_cap);
    std::printf("\nheterogeneous fleet (2 x %d-instance + 1 x %d-instance), "
                "no batching, 80%% of %.1f req/s:\n",
                point.instances, big.instances, het_cap);
    std::printf("%-6s %8s %8s %8s %8s %7s %7s %8s %8s\n", "router", "p50ms",
                "p95ms", "p99ms", "p999ms", "batch", "util", "req/s", "SLO");
    for (std::size_t i = 0; i < 3; ++i) {
      hc.router = routers[i];
      const auto arrivals = make_arrivals(ha, kSeed);
      const FleetStats s = simulate_fleet(hc, *arrivals);
      print_row(names[i], s);
    }
  }
}

}  // namespace vlacnn::bench
