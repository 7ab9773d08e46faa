// hostbench: the host-performance benchmark driver of vlacnn.
//
//   hostbench --workload sweep-cold|plan-warm|plan-observed --inputs FILE
//             --cache results/sweep_cache.csv --tmpdir DIR
//             [--seconds S] [--trace 0|1] [--spans FILE]
//
// Normally started by run.py, which builds it, generates the seeded inputs
// and pins VLACNN_THREADS=1. Prints informational lines, then one final line
//   RESULT {"attempted": N, "failed": N, "metrics": {"name": value, ...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exit 0 when the run completed (failed operations
// are counted, not fatal), 2 on a usage error, 1 on any other error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload sweep-cold|plan-warm|plan-observed "
               "--inputs FILE --cache CSV --tmpdir DIR [--seconds S] "
               "[--trace 0|1] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--inputs") {
      opt.inputs = value;
    } else if (flag == "--cache") {
      opt.cache = value;
    } else if (flag == "--tmpdir") {
      opt.tmpdir = value;
    } else if (flag == "--spans") {
      opt.spans = value;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      opt.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (opt.inputs.empty() || opt.cache.empty() || opt.tmpdir.empty() ||
      !(opt.seconds > 0)) {
    return usage();
  }

  try {
    hostbench::Result r;
    if (opt.workload == "sweep-cold") {
      r = hostbench::run_sweep_cold(opt);
    } else if (opt.workload == "plan-warm" || opt.workload == "plan-observed") {
      r = hostbench::run_plan(opt, opt.workload == "plan-observed");
    } else {
      return usage();
    }
    for (const std::string& line : r.info) std::printf("%s\n", line.c_str());
    std::printf("RESULT {\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i ? ", " : "", r.metrics[i].first.c_str(),
                  r.metrics[i].second);
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
