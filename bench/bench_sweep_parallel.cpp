// Regenerates and checks a sweep cache: loads <cache.csv>, re-derives every
// key it holds cold through the SweepDriver::get_many fan-out into a fresh
// cache at <out.csv>, rewrites <out.csv> with one row per key in SweepKey
// order, and compares every row bit for bit with the loaded one (the layer
// descriptor and all 15 numbers: the five headline values and the ten
// breakdown fields). Like every sweep, it runs one simulation per distinct
// shape (layer descriptor and hardware point); a key whose shape another key
// already simulated stores a copy of that row, and is compared all the same.
//
// Usage: bench_sweep_parallel <cache.csv> <out.csv>
//   Prints each differing key, their count, the key and simulation counts,
//   the thread count and the wall time. Exit 0 when every key reproduces, 1
//   when any differs, 2 on usage errors. Threads come from VLACNN_THREADS
//   (default: all hardware threads); the output is the same bytes at any
//   thread count.
//
//   bench_sweep_parallel results/sweep_cache.csv build/sweep_cache.csv &&
//     cmp build/sweep_cache.csv results/sweep_cache.csv
//
// checks the committed cache, and copying <out.csv> over it regenerates it.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "report/collector.h"
#include "report/report.h"

using namespace vlacnn;

namespace {

int run(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: bench_sweep_parallel <cache.csv> <out.csv>\n");
    return 2;
  }
  // A SweepKey does not record the sampler mode, so exact rows checked
  // against the sampled cache would differ at every key.
  if (repro_exact_mode()) {
    std::fprintf(stderr,
                 "bench_sweep_parallel: REPRO_EXACT is on, but the sweep "
                 "cache holds sampled rows; unset REPRO_EXACT\n");
    return 2;
  }
  const std::string cache_path = argv[1], out_path = argv[2];
  const std::vector<SweepRow> committed = ResultsDb(cache_path).rows();
  if (committed.empty()) {
    std::fprintf(stderr, "bench_sweep_parallel: %s holds no rows\n",
                 cache_path.c_str());
    return 2;
  }
  std::filesystem::remove(out_path);

  bench::banner("Sweep cache: every committed key re-derived cold",
                "engine check (not a paper figure)");
  std::vector<SweepRequest> reqs;
  reqs.reserve(committed.size());
  for (const SweepRow& r : committed) {
    reqs.push_back({r.key.net, r.key.layer, r.desc, r.key.algo,
                    r.key.vlen_bits, r.key.l2_bytes, r.key.lanes,
                    r.key.attach});
  }
  ResultsDb out(out_path);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SweepRow> fresh = SweepDriver(&out).get_many(reqs);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.rewrite();

  std::size_t differ = 0;
  for (std::size_t i = 0; i < committed.size(); ++i) {
    if (bit_identical(committed[i], fresh[i])) continue;
    ++differ;
    std::printf("DIFFERENT  %s\n", report::entry_key(committed[i].key).c_str());
  }
  std::printf("%zu keys from %s re-derived cold into %s with %zu "
              "simulations, one per distinct shape: %zu differ\n",
              committed.size(), cache_path.c_str(), out_path.c_str(),
              out.computed(), differ);
  std::printf("%u thread(s), %.1f s\n", ThreadPool::shared().size() + 1,
              seconds);
  return differ == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return report::run_tool("bench_sweep_parallel",
                          [&] { return run(argc, argv); });
}
