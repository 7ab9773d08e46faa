// Parallel sweep engine check: runs a Fig 5-8-style L2 sweep (every conv
// layer x all four algorithms x the Paper II L2 grid) twice on cold caches —
// once strictly serially through SweepDriver::get, once through the
// get_many fan-out — verifies the results are bit-identical, and reports the
// wall-clock speedup.
//
// Usage: bench_sweep_parallel [vgg_input_size]
//   default input size 64 keeps a cold serial baseline to seconds; pass 224
//   for the paper-scale sweep. Threads come from VLACNN_THREADS (default: all
//   hardware threads).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench_common.h"
#include "common/env.h"
#include "common/thread_pool.h"
#include "net/models.h"

using namespace vlacnn;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<SweepRequest> fig5_requests(const Network& net) {
  std::vector<SweepRequest> reqs;
  const auto descs = net.conv_descs();
  for (std::uint64_t l2 : paper2_l2_sizes()) {
    for (Algo algo : kAllAlgos) {
      for (std::size_t i = 0; i < descs.size(); ++i) {
        const Algo a = algo_applicable(algo, descs[i]) ? algo : Algo::kGemm6;
        reqs.push_back({net.name(), static_cast<int>(i), descs[i], a, 512, l2,
                        8, VpuAttach::kIntegratedL1});
      }
    }
  }
  return reqs;
}

}  // namespace

int main(int argc, char** argv) {
  const int size =
      argc > 1 ? parse_uint<int>("vgg_input_size", argv[1], 1) : 64;
  const Network net = make_vgg16(size);
  const auto reqs = fig5_requests(net);

  bench::banner("Parallel sweep engine: serial vs fan-out on a Fig 5-style "
                "L2 sweep",
                "engine check (not a paper figure)");
  std::printf("%zu grid points (vgg16@%d, VLEN=512, L2 in {1,4,16,64} MB), "
              "%u pool thread(s)\n",
              reqs.size(), size, ThreadPool::shared().size() + 1);

  const auto scratch = std::filesystem::temp_directory_path() /
                       "vlacnn_bench_sweep_parallel";
  std::filesystem::remove_all(scratch);

  // Parallel first: process warm-up (transform caches, allocator, frequency
  // ramp) then favours the serial baseline, making the reported speedup
  // conservative.
  ResultsDb par_db((scratch / "parallel.csv").string());
  SweepDriver parallel(&par_db);
  auto t0 = std::chrono::steady_clock::now();
  const std::vector<SweepRow> par_rows = parallel.get_many(reqs);
  const double t_parallel = seconds_since(t0);

  ResultsDb serial_db((scratch / "serial.csv").string());
  SweepDriver serial(&serial_db);
  t0 = std::chrono::steady_clock::now();
  std::vector<SweepRow> serial_rows;
  serial_rows.reserve(reqs.size());
  for (const SweepRequest& q : reqs) {
    serial_rows.push_back(serial.get(q.net, q.layer, q.desc, q.algo,
                                     q.vlen_bits, q.l2_bytes, q.lanes,
                                     q.attach));
  }
  const double t_serial = seconds_since(t0);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    mismatches +=
        std::memcmp(&serial_rows[i].cycles, &par_rows[i].cycles,
                    sizeof(double)) != 0 ||
        std::memcmp(&serial_rows[i].avg_vl, &par_rows[i].avg_vl,
                    sizeof(double)) != 0 ||
        std::memcmp(&serial_rows[i].l2_miss_rate, &par_rows[i].l2_miss_rate,
                    sizeof(double)) != 0;
  }
  std::filesystem::remove_all(scratch);

  std::printf("serial   %8.2f s\nparallel %8.2f s\nspeedup  %8.2fx\n",
              t_serial, t_parallel, t_serial / t_parallel);
  std::printf("bit-identical rows: %zu/%zu%s\n", reqs.size() - mismatches,
              reqs.size(), mismatches == 0 ? "" : "  <-- MISMATCH");
  return mismatches == 0 ? 0 : 1;
}
