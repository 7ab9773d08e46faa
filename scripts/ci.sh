#!/usr/bin/env bash
# CI entry point: tier-1 verification, a TSan pass over the concurrency
# tests (thread pool, results DB single-flight, parallel sweep, obs counters),
# full-suite ASan and UBSan passes, a cold re-simulation of the committed
# sweep cache, the artifact gate (every pinned artifact at 1 and 8 threads,
# and from an x86-64-v3 build), and the hostbench smoke test.
#
# Usage: scripts/ci.sh            # from the repo root
#   JOBS=8 scripts/ci.sh          # override parallelism (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: configure + build + full ctest =============================="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tsan: concurrency tests under VLACNN_SANITIZE=thread ================"
cmake -B build-tsan -S . -DVLACNN_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target vlacnn_tests
# TSan is slow; run the suites that exercise shared state rather than the
# whole grid. VLACNN_THREADS forces real interleaving even on 1-core CI.
VLACNN_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|ResultsDb|SingleFlight|Parallel|Concurrent|Obs'

echo "== asan/ubsan: the full suite under VLACNN_SANITIZE=address|undefined ===="
# Every test, not a subset: the serving loop's index arithmetic and every file
# reader run under both. UBSan builds with -fno-sanitize-recover
# (CMakeLists.txt), so the first report aborts its test instead of scrolling by.
# The UBSan build also makes the three CLIs and two bench tools, for the
# exit-code gate below.
for san in address undefined; do
  cmake -B "build-$san" -S . -DVLACNN_SANITIZE="$san" >/dev/null
  targets=(vlacnn_tests)
  if [ "$san" = undefined ]; then
    targets+=(vlacnn_report vlacnn_capacity vlacnn_figures
              bench_dispatch_overhead bench_sweep_parallel)
  fi
  cmake --build "build-$san" -j "$JOBS" --target "${targets[@]}"
  ctest --test-dir "build-$san" --output-on-failure -j "$JOBS"
done

echo "== report: perf-regression gate vs BENCH_report_baseline.json =========="
# A warm run (the committed results/sweep_cache.csv covers the fig01 grid with
# breakdowns) that re-emits the attribution report; the diff exits nonzero if
# any grid point's cycles moved past the budget. Cycles are simulator output —
# deterministic — so the 2% budget only absorbs intentional model changes
# (re-run with VLACNN_REPORT and commit the new baseline to accept one).
REPORT_DIR=build/report-gate
rm -rf "$REPORT_DIR"
VLACNN_REPORT="$REPORT_DIR" ./build/bench/vlacnn-figures fig01_vgg_perlayer \
  >/dev/null
REPORT_JSON="$REPORT_DIR/fig_1_per_layer_algorithm_comparison_vgg_16.report.json"
./build/tools/vlacnn-report summarize "$REPORT_JSON"
./build/tools/vlacnn-report diff BENCH_report_baseline.json "$REPORT_JSON" \
  --budget-pct 2

echo "== sweep cache: every committed key re-simulates cold to the same bytes ="
# results/sweep_cache.csv is a function of the code and its key list: one row
# per key, each with its breakdown, in SweepKey order (DESIGN.md §9). The
# driver re-simulates every key cold (about 3 minutes on 4 threads), lists
# each key whose row moved and exits 1 on any; its key-ordered output must be
# the committed file byte for byte.
./build/bench/bench_sweep_parallel results/sweep_cache.csv \
  build/sweep-cache-gate.csv
cmp build/sweep-cache-gate.csv results/sweep_cache.csv
echo "sweep cache regenerates byte-identical"

echo "== docs: README/DESIGN drift gate ======================================"
scripts/check_docs.sh build

echo "== artifacts: the same bytes at 1 and 8 threads and from x86-64-v3 ===="
# cmp_artifacts.sh writes every pinned artifact with two builds, the first at
# VLACNN_THREADS=1 and the second at 8, and cmps each pair: the capacity,
# learned-dispatch and fleet JSON, the timeline, reqtrace and kernprof JSONL,
# the report files, the renderers' text (their attribution cross-checks must
# hold) and the stdout of every vlacnn-figures id. No thread count may change
# a byte (DESIGN.md §10-§15), and no build flag may change a number (§2): GCC
# fuses a * b + c on a target with FMA unless told not to, and the library's
# -ffp-contract=off is what keeps an x86-64-v3 build's artifacts equal to the
# default build's. Without avx2 and fma the default build meets itself.
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  cmake -B build-v3 -S . -DCMAKE_CXX_FLAGS=-march=x86-64-v3 >/dev/null
  cmake --build build-v3 -j "$JOBS" --target vlacnn_capacity vlacnn_report \
    vlacnn_figures
  scripts/cmp_artifacts.sh build build-v3
else
  echo "artifacts: this host lacks avx2 or fma; comparing build with itself"
  scripts/cmp_artifacts.sh build build
fi

echo "== cli: exit-code contract (usage=2, runtime=1) ========================"
scripts/test_cli_exit_codes.sh build
# The same cases on the halting-UBSan tools, so the tools' own code (flag
# parsing, the renderers fed hostile files) runs under a sanitizer too: a
# UBSan halt exits 1 like a runtime failure, and the gate fails any case whose
# stderr carries "runtime error:".
scripts/test_cli_exit_codes.sh build-undefined

echo "== obs: disabled-path overhead budget (<2% or sub-noise) ==============="
# bench_obs_overhead self-gates both hot loops (conv inner loop + serving
# event loop): exit 1 when the no-obs/disabled median gap exceeds 2% AND the
# baseline's own min-max spread. --quick trims reps and skips the
# informational enabled-path passes; BENCH_obs.json records a full run.
./build/bench/bench_obs_overhead --quick
# bench_dispatch_overhead self-gates: exit 1 if the FlatForest lowering
# disagrees with RandomForest::predict anywhere on the selection dataset, or
# if the measured selector cost escapes the committed default
# (BENCH_dispatch_overhead.json pairs with kDefaultDispatchCyclesPerLayer).
./build/bench/bench_dispatch_overhead

echo "== hostbench: every benchmark workload briefly, untraced and traced ====="
# Checks every metric and unit, zero failed operations, an unchanged
# results/sweep_cache.csv and byte-reproducible inputs. The plan workloads
# re-simulate every fleet answer with a request log: its stats must reproduce
# byte for byte and the four-span latency split must be exact — the serving
# loop's contract, exercised on the same build the benchmark times.
python3 hostbench/smoke_test.py

echo "== ci.sh: all green ===================================================="
