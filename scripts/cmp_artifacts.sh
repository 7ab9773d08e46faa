#!/usr/bin/env bash
# Byte-compare the artifacts scripts/ci.sh gates, as written by two builds.
#
#   scripts/cmp_artifacts.sh OLD_BUILD NEW_BUILD     # e.g. ../parent/build build
#
# Each build runs the ci.sh commands on its own private copy of
# results/sweep_cache.csv, then each pair of artifacts is cmp'ed. The report
# JSON carries host wall_ms, so it is compared with
# `vlacnn-report diff --budget-pct 0` instead, which must list no changed key.
# The ci.sh gates compare two thread counts of one build; this compares two
# builds, so it also sees a byte drift that both thread counts share.
#
# VLACNN_*/REPRO_* knobs from the caller's environment are cleared. Outputs go
# to build/cmp-artifacts/{old,new}. Exit 0 when every artifact matches, 1
# when any differs, 2 on usage errors.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: scripts/cmp_artifacts.sh OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
OLD="$(cd "$1" && pwd)"
NEW="$(cd "$2" && pwd)"
cd "$(dirname "$0")/.."
for knob in $(env | sed -nE 's/^((VLACNN|REPRO)_[A-Z_]*)=.*/\1/p'); do
  unset "$knob"
done
OUT=build/cmp-artifacts
REPORT=fig_1_per_layer_algorithm_comparison_vgg_16.report

# produce BUILD DIR: every compared artifact of one build, into DIR.
produce() {
  local b="$1" d="$2"
  rm -rf "$d"
  mkdir -p "$d/cache" "$d/cold"
  cp results/sweep_cache.csv "$d/cache/"
  export REPRO_RESULTS_DIR="$d/cache"
  local cap=("$b/tools/vlacnn-capacity" --net vgg16 --load 20rps
             --slo 4000ms --requests 500)
  local fleet=("$b/tools/vlacnn-capacity" fleet --load 45rps
               --slo 12000ms --requests 800)
  "${cap[@]}" --json "$d/capacity.json" >/dev/null
  "${cap[@]}" --dispatch learned --json "$d/capacity-learned.json" >/dev/null
  VLACNN_TIMELINE_INTERVAL=1e10 "${cap[@]}" \
    --timeline "$d/capacity-timeline.jsonl" >/dev/null
  "${cap[@]}" --reqtrace "$d/capacity-reqtrace.jsonl" >/dev/null
  "${cap[@]}" --dispatch learned \
    --reqtrace "$d/capacity-learned-reqtrace.jsonl" >/dev/null
  "${fleet[@]}" --json "$d/fleet.json" >/dev/null
  "${fleet[@]}" --hop 1000 --reqtrace "$d/fleet-reqtrace.jsonl" >/dev/null
  VLACNN_REPORT="$d/report" "$b/bench/bench_fig01_vgg_perlayer" >/dev/null
  VLACNN_KERNPROF="$d/fig01-kernprof.jsonl" \
    "$b/bench/bench_fig01_vgg_perlayer" >/dev/null
  # Cold, into an empty cache, on one thread: with more workers the rows are
  # appended in completion order, which differs from run to run.
  REPRO_RESULTS_DIR="$d/cold" VLACNN_THREADS=1 \
    "$b/bench/bench_fig01_vgg_perlayer" >/dev/null
  unset REPRO_RESULTS_DIR
}

echo "cmp_artifacts: producing with $OLD"
produce "$OLD" "$OUT/old"
echo "cmp_artifacts: producing with $NEW"
produce "$NEW" "$OUT/new"

fail=0
for f in capacity.json capacity-learned.json capacity-timeline.jsonl \
         capacity-reqtrace.jsonl capacity-learned-reqtrace.jsonl fleet.json \
         fleet-reqtrace.jsonl fig01-kernprof.jsonl "report/$REPORT.csv" \
         cold/sweep_cache.csv; do
  if cmp -s "$OUT/old/$f" "$OUT/new/$f"; then
    echo "identical  $f ($(wc -c < "$OUT/new/$f") bytes)"
  else
    echo "DIFFERENT  $f"
    fail=1
  fi
done

diff_out=$("$NEW/tools/vlacnn-report" diff "$OUT/old/report/$REPORT.json" \
  "$OUT/new/report/$REPORT.json" --budget-pct 0) || fail=1
changed=$(grep -cE '^  (REGRESSED|improved|only-in)' <<< "$diff_out" || true)
echo "report diff: $(head -n 1 <<< "$diff_out"); $changed changed keys"
[ "$changed" -eq 0 ] || { echo "$diff_out"; fail=1; }

if [ "$fail" -ne 0 ]; then
  echo "cmp_artifacts: FAILED" >&2
  exit 1
fi
echo "cmp_artifacts: every artifact identical"
