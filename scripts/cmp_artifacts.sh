#!/usr/bin/env bash
# Byte-compare every pinned artifact, as written by two builds at two thread
# counts.
#
#   scripts/cmp_artifacts.sh OLD_BUILD NEW_BUILD     # e.g. ../parent/build build
#
# Each build produces the artifacts on its own private copy of
# results/sweep_cache.csv, OLD_BUILD at VLACNN_THREADS=1 and NEW_BUILD at 8,
# then each pair is cmp'ed. So `scripts/cmp_artifacts.sh build build` is the
# thread-count gate of one build, and two builds are compared at two thread
# counts at once. The report JSON carries host wall time on its
# `  "wall_ms": ` line, so each report JSON is cmp'ed with that one line
# masked, and so is the `vlacnn-report summarize` text of each report, whose
# first line prints it as `wall=`. The fig01 report also goes through
# `vlacnn-report diff --budget-pct 0`, which must list no changed key. The
# text the three JSONL renderers print (`vlacnn-report profile`, `requests`
# and `timeline`, each build's own tool over its own file; none prints host
# time) is cmp'ed too; their cross-checks (phase cycles and request spans
# fold bit-exactly to their totals) fail the script, as does any figure id or
# renderer that exits non-zero. A cold `vlacnn-figures p1_lanes` report
# covers the decoupled attachment and 2- and 4-lane timing, which the rest
# never reach. The stdout of every `vlacnn-figures list` id, each run warm on
# the build's copy of the cache, is cmp'ed too.
#
# VLACNN_*/REPRO_* knobs from the caller's environment are cleared. Outputs go
# to build/cmp-artifacts/{old,new}. Exit 0 when every artifact matches, 1
# when any differs or any command fails, 2 on usage errors.
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

# render OUT CMD...: CMD's stdout into OUT; a failing CMD fails the script.
render() {
  local out="$1"
  shift
  "$@" > "$out" || { echo "cmp_artifacts: '$*' exited $?" >&2; exit 1; }
}

# produce BUILD DIR THREADS: every compared artifact of one build, into DIR,
# on a pool of THREADS workers.
produce() {
  local b="$1" d="$2"
  rm -rf "$d"
  mkdir -p "$d/cache" "$d/cold"
  cp results/sweep_cache.csv "$d/cache/"
  export REPRO_RESULTS_DIR="$d/cache" VLACNN_THREADS="$3"
  local fig="$b/bench/vlacnn-figures"
  local cap=("$b/tools/vlacnn-capacity" --net vgg16 --load 20rps
             --slo 4000ms --requests 500)
  local fleet=("$b/tools/vlacnn-capacity" fleet --load 45rps
               --slo 12000ms --requests 800)
  "${cap[@]}" --json "$d/capacity.json" >/dev/null
  "${cap[@]}" --dispatch learned --json "$d/capacity-learned.json" >/dev/null
  # The fixed-algorithm path, with its gemm6 fallback where Winograd does not
  # apply. Its request trace (77 MB) is left out.
  "${cap[@]}" --dispatch fixed:winograd --json "$d/capacity-fixed.json" \
    >/dev/null
  VLACNN_TIMELINE_INTERVAL=1e10 "${cap[@]}" \
    --timeline "$d/capacity-timeline.jsonl" >/dev/null
  "${cap[@]}" --reqtrace "$d/capacity-reqtrace.jsonl" >/dev/null
  "${cap[@]}" --dispatch learned \
    --reqtrace "$d/capacity-learned-reqtrace.jsonl" >/dev/null
  # Request-sim, dispatch and timeline report cells. The default cadence
  # would write ~350 MB here; the fleet run below covers it.
  VLACNN_REPORT="$d/report-capacity" VLACNN_TIMELINE_INTERVAL=1e9 \
    "${cap[@]}" --dispatch learned \
    --timeline "$d/capacity-learned-timeline.jsonl" >/dev/null
  "${fleet[@]}" --json "$d/fleet.json" >/dev/null
  "${fleet[@]}" --hop 1000 --reqtrace "$d/fleet-reqtrace.jsonl" >/dev/null
  # Fleet report cells, and the per-chip (<label>/chipNN) timeline blocks.
  VLACNN_REPORT="$d/report-fleet" "${fleet[@]}" \
    --timeline "$d/fleet-timeline.jsonl" >/dev/null
  VLACNN_REPORT="$d/report" "$fig" fig01_vgg_perlayer >/dev/null
  # The kernel profile, with the report on: its per-phase cells and the CSV
  # phase block, next to the same entries as the report-only run above.
  VLACNN_REPORT="$d/report-kernprof" \
    VLACNN_KERNPROF="$d/fig01-kernprof.jsonl" \
    "$fig" fig01_vgg_perlayer >/dev/null
  # Every figure id's stdout, warm.
  mkdir -p "$d/stdout"
  local id ids
  ids=$("$fig" list)  # a failing `list` fails the script, as render does
  for id in $ids; do
    render "$d/stdout/$id" "$fig" "$id"
  done
  # Cold, into an empty cache, on one thread: with more workers the rows are
  # appended in completion order, which differs from run to run.
  REPRO_RESULTS_DIR="$d/cold" VLACNN_THREADS=1 \
    "$fig" fig01_vgg_perlayer >/dev/null
  # The decoupled path (vector buffer before L2) and 2/4-lane timing, which
  # no output above reaches: 135 YOLOv3-20 GEMM3 points simulated cold. The
  # report is key-ordered, so any thread count writes the same bytes; its
  # cache is not compared.
  mkdir -p "$d/p1-cold"
  REPRO_RESULTS_DIR="$d/p1-cold" VLACNN_REPORT="$d/report-p1-lanes" \
    "$fig" p1_lanes >/dev/null
  unset REPRO_RESULTS_DIR VLACNN_THREADS
  # The JSONL readers' text.
  local rep="$b/tools/vlacnn-report"
  render "$d/fig01-kernprof.profile" \
    "$rep" profile "$d/fig01-kernprof.jsonl" --windows 0
  render "$d/capacity-reqtrace.requests" \
    "$rep" requests "$d/capacity-reqtrace.jsonl"
  render "$d/fleet-reqtrace.requests" "$rep" requests "$d/fleet-reqtrace.jsonl"
  render "$d/capacity-timeline.timeline" \
    "$rep" timeline "$d/capacity-timeline.jsonl"
  # The one line of host wall time, masked so the rest of each report JSON
  # can be cmp'ed; the summary prints it once too, on its first line.
  local json
  for json in "$d"/report*/*.report.json; do
    sed -E 's/^(  "wall_ms": ).*$/\1(masked)/' "$json" > "$json.masked"
    "$b/tools/vlacnn-report" summarize "$json" |
      sed -E '1s/  wall=[^ ]* ms$/  wall=(masked) ms/' > "$json.summary"
  done
}

echo "cmp_artifacts: producing with $OLD at VLACNN_THREADS=1"
produce "$OLD" "$OUT/old" 1
echo "cmp_artifacts: producing with $NEW at VLACNN_THREADS=8"
produce "$NEW" "$OUT/new" 8

fail=0
n=0
# The report files and stdouts either side wrote; one that the other side
# lacks fails its cmp.
listed=$(cd "$OUT" && ls {old,new}/stdout/* \
  {old,new}/report*/*.report.{csv,json.masked,json.summary} |
  cut -d/ -f2- | sort -u)
for f in capacity.json capacity-learned.json capacity-fixed.json \
         capacity-timeline.jsonl \
         capacity-reqtrace.jsonl capacity-learned-reqtrace.jsonl \
         capacity-learned-timeline.jsonl fleet.json fleet-reqtrace.jsonl \
         fleet-timeline.jsonl fig01-kernprof.jsonl $listed \
         cold/sweep_cache.csv fig01-kernprof.profile \
         capacity-reqtrace.requests fleet-reqtrace.requests \
         capacity-timeline.timeline; do
  n=$((n + 1))
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
echo "cmp_artifacts: all $n artifacts identical"
