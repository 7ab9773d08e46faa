#!/usr/bin/env bash
# CI entry point: tier-1 verification, a TSan pass over the concurrency
# tests (thread pool, results DB single-flight, parallel sweep, obs counters),
# full-suite ASan and UBSan passes, the artifact gates (an x86-64-v3 build's
# artifacts included), and the hostbench smoke test.
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
# The UBSan build also makes the two CLIs, for the exit-code gate below.
for san in address undefined; do
  cmake -B "build-$san" -S . -DVLACNN_SANITIZE="$san" >/dev/null
  targets=(vlacnn_tests)
  if [ "$san" = undefined ]; then targets+=(vlacnn_report vlacnn_capacity); fi
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
VLACNN_REPORT="$REPORT_DIR" ./build/bench/bench_fig01_vgg_perlayer >/dev/null
REPORT_JSON="$REPORT_DIR/fig_1_per_layer_algorithm_comparison_vgg_16.report.json"
./build/tools/vlacnn-report summarize "$REPORT_JSON"
./build/tools/vlacnn-report diff BENCH_report_baseline.json "$REPORT_JSON" \
  --budget-pct 2

echo "== docs: README/DESIGN drift gate ======================================"
scripts/check_docs.sh build

echo "== serving: capacity-planner determinism across thread counts =========="
# Same seed, same grid, different pool sizes: the stats JSON must be
# byte-identical (DESIGN.md §10). Warm cache makes this a sub-second step.
CAP_DIR=build/capacity-gate
rm -rf "$CAP_DIR"; mkdir -p "$CAP_DIR"
VLACNN_THREADS=1 ./build/tools/vlacnn-capacity --net vgg16 --load 20rps \
  --slo 4000ms --requests 500 --json "$CAP_DIR/t1.json" >/dev/null
VLACNN_THREADS=8 ./build/tools/vlacnn-capacity --net vgg16 --load 20rps \
  --slo 4000ms --requests 500 --json "$CAP_DIR/t8.json" >/dev/null
cmp "$CAP_DIR/t1.json" "$CAP_DIR/t8.json"
echo "capacity plan byte-identical at VLACNN_THREADS=1 and 8"

echo "== dispatch: learned-dispatch determinism + selector-cost envelope ====="
# The learned path adds a per-point bandit (forest training, epsilon-greedy
# exploration) on top of the capacity run above; its JSON must stay
# byte-identical across pool sizes too (DESIGN.md §11). Warm cache again.
VLACNN_THREADS=1 ./build/tools/vlacnn-capacity --net vgg16 --load 20rps \
  --slo 4000ms --requests 500 --dispatch learned \
  --json "$CAP_DIR/learned-t1.json" >/dev/null
VLACNN_THREADS=8 ./build/tools/vlacnn-capacity --net vgg16 --load 20rps \
  --slo 4000ms --requests 500 --dispatch learned \
  --json "$CAP_DIR/learned-t8.json" >/dev/null
cmp "$CAP_DIR/learned-t1.json" "$CAP_DIR/learned-t8.json"
echo "learned-dispatch capacity plan byte-identical at VLACNN_THREADS=1 and 8"

echo "== timeline: JSONL determinism across thread counts ===================="
# Same planner run with VLACNN_TIMELINE on: the sink writes blocks in sorted
# label order, so the JSONL must be byte-identical too (DESIGN.md §12). The
# interval is pinned coarse so 160 grid points stay a few MB of output.
VLACNN_THREADS=1 VLACNN_TIMELINE_INTERVAL=1e10 ./build/tools/vlacnn-capacity \
  --net vgg16 --load 20rps --slo 4000ms --requests 500 \
  --timeline "$CAP_DIR/tl-t1.jsonl" >/dev/null
VLACNN_THREADS=8 VLACNN_TIMELINE_INTERVAL=1e10 ./build/tools/vlacnn-capacity \
  --net vgg16 --load 20rps --slo 4000ms --requests 500 \
  --timeline "$CAP_DIR/tl-t8.jsonl" >/dev/null
cmp "$CAP_DIR/tl-t1.jsonl" "$CAP_DIR/tl-t8.jsonl"
./build/tools/vlacnn-report timeline "$CAP_DIR/tl-t1.jsonl" --snapshots 2 \
  >/dev/null
echo "timeline JSONL byte-identical at VLACNN_THREADS=1 and 8"

echo "== fleet: multi-chip plan determinism across thread counts ============="
# The fleet planner fans candidate fleets out on the pool; the vlacnn.fleet.v1
# JSON (chip-type menu, every composition's stats, both headline answers) must
# be byte-identical across pool sizes (DESIGN.md §15). Warm cache again: the
# committed sweep grid covers both mix models, so each candidate is a pure
# event-loop run.
FLEET_DIR=build/fleet-gate
rm -rf "$FLEET_DIR"; mkdir -p "$FLEET_DIR"
VLACNN_THREADS=1 ./build/tools/vlacnn-capacity fleet --load 45rps \
  --slo 12000ms --requests 800 --json "$FLEET_DIR/t1.json" >/dev/null
VLACNN_THREADS=8 ./build/tools/vlacnn-capacity fleet --load 45rps \
  --slo 12000ms --requests 800 --json "$FLEET_DIR/t8.json" >/dev/null
cmp "$FLEET_DIR/t1.json" "$FLEET_DIR/t8.json"
echo "fleet plan byte-identical at VLACNN_THREADS=1 and 8"
# Smoke the fleet reqtrace path end to end: the router hop must show up as its
# own span and the forensics attribution cross-check (four spans sum
# bit-exactly to each latency) must hold fleet-wide.
./build/tools/vlacnn-capacity fleet --load 45rps --slo 12000ms \
  --requests 800 --hop 1000 --reqtrace "$FLEET_DIR/rt.jsonl" >/dev/null
./build/tools/vlacnn-report requests "$FLEET_DIR/rt.jsonl" --top 3 \
  --waterfall 0 >/dev/null
echo "fleet reqtrace attribution cross-check holds"

echo "== reqtrace: per-request trace determinism across thread counts ========"
# Per-request tracing over the same planner run: the tail-sampled trace JSONL
# must be byte-identical across pool sizes too (DESIGN.md §13), and the
# forensics subcommand's attribution cross-check (every sampled request's
# spans sum bit-exactly to its latency) must hold for every grid point.
VLACNN_THREADS=1 ./build/tools/vlacnn-capacity --net vgg16 --load 20rps \
  --slo 4000ms --requests 500 --reqtrace "$CAP_DIR/rt-t1.jsonl" >/dev/null
VLACNN_THREADS=8 ./build/tools/vlacnn-capacity --net vgg16 --load 20rps \
  --slo 4000ms --requests 500 --reqtrace "$CAP_DIR/rt-t8.jsonl" >/dev/null
cmp "$CAP_DIR/rt-t1.jsonl" "$CAP_DIR/rt-t8.jsonl"
./build/tools/vlacnn-report requests "$CAP_DIR/rt-t1.jsonl" --top 3 \
  --waterfall 0 >/dev/null
echo "reqtrace JSONL byte-identical at VLACNN_THREADS=1 and 8"

echo "== kernprof: phase-profile JSONL determinism across thread counts ======"
# Per-kernel phase profiling over the fig01 grid: the sink writes blocks in
# sorted label order, so the JSONL must be byte-identical across pool sizes
# (DESIGN.md §14) — this also covers the warm-cache re-sim path, since the
# report gate above already filled the results DB for this grid. The profile
# explorer then gates every block's attribution cross-check (phase cycles
# fold bit-exactly to the kernel total; exit 1 on any mismatch).
KP_DIR=build/kernprof-gate
rm -rf "$KP_DIR"; mkdir -p "$KP_DIR"
VLACNN_THREADS=1 VLACNN_KERNPROF="$KP_DIR/kp-t1.jsonl" \
  ./build/bench/bench_fig01_vgg_perlayer >/dev/null
VLACNN_THREADS=8 VLACNN_KERNPROF="$KP_DIR/kp-t8.jsonl" \
  ./build/bench/bench_fig01_vgg_perlayer >/dev/null
cmp "$KP_DIR/kp-t1.jsonl" "$KP_DIR/kp-t8.jsonl"
./build/tools/vlacnn-report profile "$KP_DIR/kp-t1.jsonl" --windows 4 \
  >/dev/null
echo "kernprof JSONL byte-identical at VLACNN_THREADS=1 and 8"

echo "== isa: the same bytes from an x86-64-v3 (AVX2 + FMA) build ============="
# No build flag may change a number (DESIGN.md §2). GCC fuses a * b + c on a
# target with FMA unless told not to; the library's -ffp-contract=off is what
# keeps these artifacts equal to the default build's.
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  cmake -B build-v3 -S . -DCMAKE_CXX_FLAGS=-march=x86-64-v3 >/dev/null
  cmake --build build-v3 -j "$JOBS" --target vlacnn_capacity vlacnn_report \
    bench_fig01_vgg_perlayer bench_p1_lanes
  scripts/cmp_artifacts.sh build build-v3
else
  echo "isa: skipped, this host lacks avx2 or fma"
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
