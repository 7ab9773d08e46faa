#!/usr/bin/env bash
# CLI exit-code contract gate for vlacnn-capacity, vlacnn-report,
# vlacnn-figures and, for their runtime failures, two bench tools:
#
#   0 = success
#   1 = semantic/runtime failure (infeasible SLO, failed regression gate,
#       unreadable input, a failed artifact write)
#   2 = usage error (unknown flag/subcommand, malformed value), with the
#       usage text on stderr — never stdout
#
#   scripts/test_cli_exit_codes.sh [build-dir]    # default build dir: build/
#
# Any case whose stderr carries a sanitizer's "runtime error:" fails: a
# halting-UBSan build (build-undefined) exits 1 on undefined behaviour, the
# same code as a runtime failure, so exit codes alone would miss it. So does
# one whose stderr carries "terminate called": an uncaught exception.
#
# The infeasible-capacity and failed-diff cases exercise real runs: the first
# rides the committed sweep cache (results/sweep_cache.csv) so it stays fast,
# the second diffs the committed report baseline against a copy with one
# cycles entry inflated ~10x, which must trip the 2% budget.
set -u

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CAP="$BUILD_DIR/tools/vlacnn-capacity"
REP="$BUILD_DIR/tools/vlacnn-report"
FIG="$BUILD_DIR/bench/vlacnn-figures"
TMP="$BUILD_DIR/cli-exit-gate"
rm -rf "$TMP"; mkdir -p "$TMP"
fail=0

# expect <want-code> <check> <label> -- cmd args...
# check=yes additionally asserts the usage text landed on stderr only;
# usage:<regex> asserts that and that stderr matches the extended regex; no
# checks nothing more; anything else is an extended regex stderr must match,
# with no usage text on either stream (a runtime error, not a usage error).
expect() {
  local want="$1" usage="$2" label="$3"; shift 4
  local out="$TMP/out" err="$TMP/err" got=0 re=""
  case "$usage" in
    yes|no) ;;
    usage:*) re="${usage#usage:}"; usage=yes ;;
    *) re="$usage" ;;
  esac
  "$@" >"$out" 2>"$err" || got=$?
  if [ "$got" != "$want" ] ||
     grep -qE 'runtime error:|terminate called' "$err"; then
    echo "FAIL: $label: exit $got, want $want (or a sanitizer report or" \
         "an uncaught exception)" >&2
    sed 's/^/  stderr: /' "$err" >&2
    fail=1
    return
  fi
  if [ -n "$re" ] && ! grep -qE -e "$re" "$err"; then
    echo "FAIL: $label: stderr lacks /$re/" >&2
    sed 's/^/  stderr: /' "$err" >&2
    fail=1
    return
  fi
  if [ "$usage" != yes ] && [ "$usage" != no ]; then
    if grep -q '^usage:' "$out" "$err"; then
      echo "FAIL: $label: a runtime error carries usage text" >&2
      fail=1
      return
    fi
  fi
  if [ "$usage" = yes ]; then
    if ! grep -q '^usage:' "$err"; then
      echo "FAIL: $label: exit $want but no usage text on stderr" >&2
      fail=1
      return
    fi
    if grep -q '^usage:' "$out"; then
      echo "FAIL: $label: usage text leaked to stdout" >&2
      fail=1
      return
    fi
  fi
  echo "ok: $label (exit $got)"
}

# -- vlacnn-capacity: usage errors exit 2 with usage on stderr ---------------
expect 2 yes "capacity: unknown flag"        -- "$CAP" --bogus
expect 2 yes "capacity: malformed --load"    -- "$CAP" --load nope
expect 2 yes "capacity: unknown --net"       -- "$CAP" --net martian
expect 2 yes "capacity: unknown --dispatch"  -- "$CAP" --dispatch psychic
expect 2 yes "capacity: flag missing value"  -- "$CAP" --slo

# -- vlacnn-capacity fleet: usage errors exit 2 with usage on stderr ---------
expect 2 yes "fleet: unknown flag"           -- "$CAP" fleet --bogus
expect 2 yes "fleet: malformed --load"       -- "$CAP" fleet --load nope
expect 2 yes "fleet: malformed --mix"        -- "$CAP" fleet --mix "vgg16"
expect 2 yes "fleet: malformed --router"     -- "$CAP" fleet --router random
expect 2 yes "fleet: malformed --max-chips"  -- "$CAP" fleet --max-chips zero
expect 2 yes "fleet: flag missing value"     -- "$CAP" fleet --slo

# -- malformed flag values: exit 2, naming the flag and quoting the value -----
# Each used to be misread: a wrapped or truncated number, 0 for garbage, or a
# non-finite value that failed deep inside the run. The cheap --requests 100
# up front keeps a misread run short; a later flag overrides it.
# bad_value [fleet] FLAG VALUE
bad_value() {
  local sub=()
  if [ "$1" = fleet ]; then sub=(fleet); shift; fi
  expect 2 "usage:vlacnn-capacity: $1: expected .*, got '$2'" \
    "${sub[*]:-capacity}: $1 $2" -- "$CAP" "${sub[@]}" --requests 100 "$1" "$2"
}
bad_value --requests -1
bad_value --requests 100x
bad_value --seed abc
bad_value fleet --hop abc
bad_value --area-budget abc
bad_value --area-budget -5
bad_value --queue -1
bad_value --max-batch 1e3
bad_value fleet --max-chips 2e9
bad_value --load 0x14
bad_value --slo inf
bad_value --load inf
bad_value --flush-ms inf
bad_value fleet --hop inf

# -- vlacnn-capacity fleet: infeasible query exits 1 (not 2) -----------------
# 1e6 req/s against a 1 ms deadline: no composition survives the optimistic
# prune, so the planner reports no feasible fleet. Warm cache keeps it fast.
expect 1 no "fleet: infeasible SLO" \
  -- "$CAP" fleet --load 1000000rps --slo 1ms --requests 100

# -- vlacnn-capacity: infeasible SLO exits 1 (not 2) -------------------------
# 1e6 req/s against a 1 ms deadline: no grid point survives. Warm cache makes
# this a real (sub-minute) run, and stderr must NOT carry the usage text.
expect 1 no "capacity: infeasible SLO" \
  -- "$CAP" --net vgg16 --load 1000000rps --slo 1ms --requests 100

# -- vlacnn-report: usage errors exit 2 with usage on stderr -----------------
expect 2 yes "report: no subcommand"         -- "$REP"
expect 2 yes "report: unknown subcommand"    -- "$REP" frobnicate x.json
expect 2 yes "report: unknown option"        -- "$REP" summarize a.json --huh
expect 2 yes "report: malformed --top"       -- "$REP" requests /dev/null --top bogus
expect 2 yes "report: malformed --budget"    -- "$REP" diff a.json b.json --budget-pct -5
expect 2 yes "report: profile missing file"  -- "$REP" profile
expect 2 yes "report: malformed --windows"   -- "$REP" profile x.jsonl --windows bogus
expect 2 yes "report: profile flag no value" -- "$REP" profile x.jsonl --point

expect 2 "usage:--top: .*'2\.9'" "report: fractional --top" \
  -- "$REP" requests /dev/null --top 2.9
expect 2 "usage:--top: .*'1e30'" "report: --top past size_t" \
  -- "$REP" requests /dev/null --top 1e30

# -- vlacnn-report: runtime failures exit 1 (not 2) --------------------------
expect 1 no "report: unreadable summarize input" -- "$REP" summarize "$TMP/nope.json"
expect 1 no "report: unreadable requests input"  -- "$REP" requests "$TMP/nope.jsonl"
expect 1 no "report: unreadable profile input"   -- "$REP" profile "$TMP/nope.jsonl"

# Broken phase partition: the phase cycles fold to 90, the kernel total says
# 100. The attribution cross-check must flag the block (exit 1, not 2).
printf '%s\n%s\n%s\n' \
  '{"type":"run","label":"bad/L00/gemm3/vlen512/l2:1048576/lanes8/int"}' \
  '{"type":"kernel","net":"bad","layer":0,"algo":"gemm3","vlen_bits":512,"l2_bytes":1048576,"lanes":8,"attach":"int","interval_cycles":1000000,"cycles":100,"compute_cycles":60,"mem_issue_cycles":20,"mem_stall_cycles":15,"scalar_cycles":5,"phase_count":1,"window_count":0}' \
  '{"type":"phase","name":"im2col","cycles":90,"raw_cycles":90,"compute_cycles":60,"mem_issue_cycles":20,"mem_stall_cycles":5,"scalar_cycles":5,"vec_instructions":10,"vec_elems":160,"avg_vl":16,"flops":320,"l1_accesses":4,"l1_misses":1,"l2_accesses":1,"l2_misses":0,"mem_bytes":64}' \
  > "$TMP/broken-fold.jsonl"
expect 1 no "report: profile fold mismatch" -- "$REP" profile "$TMP/broken-fold.jsonl"
expect 1 no "report: profile point no match" \
  -- "$REP" profile "$TMP/broken-fold.jsonl" --point nosuchlayer

# Hostile but well-typed files: a span or phase share far past 1 renders a
# full bar (no out-of-range cast to int), then the attribution cross-check
# fails the file. The request's queue wait is 1e300 times its latency; the
# phase is 1e300 times its kernel, and a window's compute band is 1e600 times
# its busy cycles.
printf '%s\n%s\n%s\n' \
  '{"type":"run","label":"hostile"}' \
  '{"type":"header","slo_cycles":1,"offered":1,"completed":1,"dropped":0,"violations":0}' \
  '{"type":"request","id":1,"arrival":0,"dispatch":0,"completion":1e-300,"latency":1e-300,"queue_wait":1,"formation_wait":0,"service":0,"batch":1,"instance":0,"dropped":false,"within_slo":true,"keep":"slow","layers":[],"notes":[]}' \
  > "$TMP/hostile-reqtrace.jsonl"
expect 1 'span-attribution identities violated' \
  "report: requests with a share of 1e300" \
  -- "$REP" requests "$TMP/hostile-reqtrace.jsonl"
printf '%s\n%s\n%s\n%s\n' \
  '{"type":"run","label":"hostile/L00/gemm3/vlen512/l2:1048576/lanes8/int"}' \
  '{"type":"kernel","net":"hostile","layer":0,"algo":"gemm3","vlen_bits":512,"l2_bytes":1048576,"lanes":8,"attach":"int","interval_cycles":1,"cycles":1e-300,"compute_cycles":0,"mem_issue_cycles":0,"mem_stall_cycles":0,"scalar_cycles":0}' \
  '{"type":"phase","name":"im2col","cycles":1,"raw_cycles":1,"compute_cycles":1,"mem_issue_cycles":0,"mem_stall_cycles":0,"scalar_cycles":0,"vec_instructions":1,"vec_elems":16,"avg_vl":16,"flops":1,"l1_accesses":0,"l1_misses":0,"l2_accesses":0,"l2_misses":0,"mem_bytes":0}' \
  '{"type":"window","t_start":0,"t_end":1,"compute_cycles":1e300,"mem_issue_cycles":-1e300,"mem_stall_cycles":1e-300,"scalar_cycles":0,"avg_vl":16,"lane_utilization":1,"l1_miss_rate":0,"l2_miss_rate":0,"dram_bytes_per_cycle":0}' \
  > "$TMP/hostile-kernprof.jsonl"
expect 1 'profile blocks violate the phase partition' \
  "report: profile with shares of 1e300 and 1e600" \
  -- "$REP" profile "$TMP/hostile-kernprof.jsonl"

# Malformed JSONL: a mistyped field is an error, not a silent 0 or an
# "(unlabeled run)", and every per-line error names file:line.
printf '%s\n' \
  '{"type":"header","interval_cycles":1000,"rolling_window":8,"sketch_relative_error":0.01,"slo_cycles":"x","attainment_target":0.99,"alert_threshold":1,"instances":1}' \
  > "$TMP/string-slo.jsonl"
expect 1 'string-slo\.jsonl:1: .*"slo_cycles"' "report: timeline number field holds a string" \
  -- "$REP" timeline "$TMP/string-slo.jsonl"
printf '%s\n' '{"type":"run","label":7}' > "$TMP/number-label.jsonl"
expect 1 'number-label\.jsonl:1: .*"label"' "report: run label holds a number" \
  -- "$REP" requests "$TMP/number-label.jsonl"
printf '%s\n' '{"type":"run","label":"a"}' \
  '{"type":"snapshot","t_start":0}' > "$TMP/missing-key.jsonl"
expect 1 'missing-key\.jsonl:2: .*"t_end"' "report: missing key names file:line" \
  -- "$REP" timeline "$TMP/missing-key.jsonl"

# Nesting past the parser's cap (64 levels) is a parse error with an offset,
# not a stack overflow: a report of a million '[' and a JSONL line of them.
head -c 1000000 /dev/zero | tr '\0' '[' > "$TMP/deep.json"
expect 1 'json parse error at offset 64: nesting deeper' \
  "report: a million nested brackets" -- "$REP" summarize "$TMP/deep.json"
{ echo '{"type":"run","label":"a"}'; cat "$TMP/deep.json"; echo; } \
  > "$TMP/deep.jsonl"
expect 1 'deep\.jsonl:2: json parse error at offset 64' \
  "report: a JSONL line of a million nested brackets" \
  -- "$REP" timeline "$TMP/deep.jsonl"

# Integer fields are checked, not cast: a fraction, a sign or an overflow
# names the key instead of rendering as another grid point (L02, lanes
# 4294967288, l2 2^64-1, L-21474) or diffing clean against a collision.
# `"layer": 1` is the first L01 row; 2.5 would truncate into the L02 row.
sed '0,/"layer": 1,/s//"layer": 2.5,/' BENCH_report_baseline.json \
  > "$TMP/layer-frac.json"
sed '0,/"layer": 1,/s//"layer": 1e30,/' BENCH_report_baseline.json \
  > "$TMP/layer-huge.json"
sed '0,/"lanes": 8,/s//"lanes": -8,/' BENCH_report_baseline.json \
  > "$TMP/lanes-neg.json"
sed -E '0,/"l2_bytes": [0-9]+,/s//"l2_bytes": -1,/' BENCH_report_baseline.json \
  > "$TMP/l2-neg.json"
for f in layer-frac layer-huge lanes-neg l2-neg; do
  if cmp -s BENCH_report_baseline.json "$TMP/$f.json"; then
    echo "FAIL: sed produced no $f mutant" >&2
    fail=1
  fi
done
expect 1 '"layer" holds 2\.5, expected a signed' "report: layer 2.5" \
  -- "$REP" summarize "$TMP/layer-frac.json"
expect 1 '"layer" holds 1e\+30' "report: layer 1e30" \
  -- "$REP" summarize "$TMP/layer-huge.json"
expect 1 '"lanes" holds -8, expected an unsigned' "report: lanes -8" \
  -- "$REP" summarize "$TMP/lanes-neg.json"
expect 1 '"l2_bytes" holds -1' "report: l2_bytes -1" \
  -- "$REP" summarize "$TMP/l2-neg.json"
expect 1 '"layer" holds 2\.5' "report: diff against a colliding layer 2.5" \
  -- "$REP" diff BENCH_report_baseline.json "$TMP/layer-frac.json" \
     --budget-pct 0
printf '%s\n' '{"type":"run","label":"a"}' \
  '{"type":"header","interval_cycles":1000,"slo_cycles":5000}' \
  '{"type":"snapshot","t_start":0,"t_end":1000,"arrivals":-1,"drops":0,"dispatches":0,"completions":0,"queue_depth":0,"in_flight":0,"mean_queue":0,"utilization":0,"arrival_rate":0,"completion_rate":0,"rolling_p99":0,"rolling_count":0,"burn_short":0,"burn_long":0,"alert":false,"cum_offered":0,"cum_completed":0,"cum_dropped":0}' \
  > "$TMP/arrivals-neg.jsonl"
expect 1 'arrivals-neg\.jsonl:3: .*"arrivals" holds -1' \
  "report: timeline snapshot arrivals -1" \
  -- "$REP" timeline "$TMP/arrivals-neg.jsonl"

# Malformed env knobs: a runtime failure (exit 1) whose message starts with
# the knob's name; never a usage error, never a silent default or a wrap.
CAP_RUN=("$CAP" --net vgg16 --load 20rps --slo 4000ms --requests 100)
FLEET_RUN=("$CAP" fleet --load 45rps --slo 12000ms --requests 100)
expect 1 'VLACNN_REQTRACE_TOPK: ' "knob: VLACNN_REQTRACE_TOPK=-1" \
  -- env VLACNN_REQTRACE_TOPK=-1 "${CAP_RUN[@]}" --reqtrace "$TMP/rt.jsonl"
expect 1 'VLACNN_THREADS: ' "knob: VLACNN_THREADS=4294967297" \
  -- env VLACNN_THREADS=4294967297 "${CAP_RUN[@]}"
expect 1 'VLACNN_FLEET_SEED: ' "knob: VLACNN_FLEET_SEED=-1" \
  -- env VLACNN_FLEET_SEED=-1 "${FLEET_RUN[@]}"
expect 1 'VLACNN_TIMELINE_INTERVAL: ' "knob: VLACNN_TIMELINE_INTERVAL=inf" \
  -- env VLACNN_TIMELINE_INTERVAL=inf "${CAP_RUN[@]}" --timeline "$TMP/tl.jsonl"
expect 1 'VLACNN_DISPATCH_CYCLES: ' "knob: VLACNN_DISPATCH_CYCLES=+4000" \
  -- env VLACNN_DISPATCH_CYCLES=+4000 "${CAP_RUN[@]}" --dispatch learned
expect 1 'VLACNN_METRICS: ' "knob: VLACNN_METRICS=ture" \
  -- env VLACNN_METRICS=ture "${CAP_RUN[@]}"

# A file that opens but cannot be written (/dev/full fails every write with
# ENOSPC) is a runtime failure naming the path, not a "wrote" line and exit 0.
# The artifacts written as main returns (report::finish_run) fail the same
# way: the report through a symlink, the three JSONL sinks and the trace. The
# kernprof case re-derives one committed key: one simulation.
if [ -e /dev/full ]; then
  expect 1 '--json: short write to /dev/full' "capacity: --json /dev/full" \
    -- "${CAP_RUN[@]}" --json /dev/full
  REP_JSON="$TMP/rep/table_1_convolutional_layers_of_vgg_16_and_yolov3_first_20.report.json"
  mkdir -p "$TMP/rep"
  ln -s /dev/full "$REP_JSON"
  expect 1 "^vlacnn-figures: table1_layers: report: short write to $REP_JSON\$" \
    "figures: VLACNN_REPORT file on /dev/full" \
    -- env VLACNN_REPORT="$TMP/rep" "$FIG" table1_layers
  expect 1 '^vlacnn-capacity: TimelineSink::write_file: short write to /dev/full$' \
    "capacity: --timeline /dev/full" -- "${CAP_RUN[@]}" --timeline /dev/full
  expect 1 '^vlacnn-capacity: ReqTraceSink::write_file: short write to /dev/full$' \
    "capacity: --reqtrace /dev/full" -- "${CAP_RUN[@]}" --reqtrace /dev/full
  expect 1 '^vlacnn-capacity: trace: short write to /dev/full$' \
    "capacity: VLACNN_TRACE=/dev/full" \
    -- env VLACNN_TRACE=/dev/full "${CAP_RUN[@]}"
  head -n 2 results/sweep_cache.csv > "$TMP/one-key.csv"
  expect 1 '^bench_sweep_parallel: KernProfSink::write_file: short write to /dev/full$' \
    "bench_sweep_parallel: VLACNN_KERNPROF=/dev/full" \
    -- env VLACNN_KERNPROF=/dev/full "$BUILD_DIR/bench/bench_sweep_parallel" \
       "$TMP/one-key.csv" "$TMP/one-key-out.csv"
fi

# A usage error returns through the same writer: a VLACNN_TRACE run that dies
# on a bad flag still leaves a valid, empty trace.
expect 2 yes "capacity: usage error under VLACNN_TRACE" \
  -- env VLACNN_TRACE="$TMP/usage-trace.json" "$CAP" --bogus
printf '{"displayTimeUnit":"ms","traceEvents":[\n]}\n' > "$TMP/empty-trace.json"
if ! cmp -s "$TMP/empty-trace.json" "$TMP/usage-trace.json"; then
  echo "FAIL: capacity: usage error under VLACNN_TRACE left no empty trace" >&2
  fail=1
fi

# -- vlacnn-figures: an id or `list`; anything else is a usage error ----------
expect 2 yes "figures: no id"      -- "$FIG"
expect 2 yes "figures: unknown id" -- "$FIG" fig99_nonesuch
expect 0 no  "figures: list"       -- "$FIG" list
if [ "$(wc -l < "$TMP/out")" != 26 ]; then
  echo "FAIL: figures: list prints $(wc -l < "$TMP/out") ids, want 26" >&2
  fail=1
fi

# -- bench tools: a thrown error exits 1 naming it ---------------------------
expect 1 'VLACNN_THREADS: ' "bench_dispatch_overhead: VLACNN_THREADS=abc" \
  -- env VLACNN_THREADS=abc "$BUILD_DIR/bench/bench_dispatch_overhead"
expect 1 'VLACNN_THREADS: ' "bench_sweep_parallel: VLACNN_THREADS=abc" \
  -- env VLACNN_THREADS=abc "$BUILD_DIR/bench/bench_sweep_parallel" \
     results/sweep_cache.csv "$TMP/sweep.csv"

# Failed regression gate: inflate the first per-entry cycles figure ~10x and
# diff against the pristine baseline with the ci.sh budget.
sed '0,/"cycles": /s//"cycles": 9/' BENCH_report_baseline.json \
  > "$TMP/regressed.json"
if cmp -s BENCH_report_baseline.json "$TMP/regressed.json"; then
  echo "FAIL: sed produced no regression to diff against" >&2
  fail=1
fi
expect 1 no "report: failed regression gate" \
  -- "$REP" diff BENCH_report_baseline.json "$TMP/regressed.json" --budget-pct 2
# A budget must be a finite number: nan and inf passed every regression.
for budget in nan inf; do
  expect 2 "usage:--budget-pct: .*'$budget'" "report: --budget-pct $budget" \
    -- "$REP" diff BENCH_report_baseline.json "$TMP/regressed.json" \
       --budget-pct "$budget"
done
# A JSON number is one RFC 8259 token: 97338839-7.95... is a parse error, not
# 97338839 with the rest ignored (which diffed clean against the baseline).
sed -E '0,/"cycles": ([0-9]+)\./s//"cycles": \1-7./' BENCH_report_baseline.json \
  > "$TMP/cycles-minus.json"
if cmp -s BENCH_report_baseline.json "$TMP/cycles-minus.json"; then
  echo "FAIL: sed produced no cycles-minus mutant" >&2
  fail=1
fi
expect 1 'json parse error at offset' "report: diff against 97338839-7.95..." \
  -- "$REP" diff BENCH_report_baseline.json "$TMP/cycles-minus.json" \
     --budget-pct 0
expect 0 no "report: clean diff passes" \
  -- "$REP" diff BENCH_report_baseline.json BENCH_report_baseline.json \
     --budget-pct 2

if [ "$fail" != 0 ]; then
  echo "test_cli_exit_codes: FAILED" >&2
  exit 1
fi
echo "test_cli_exit_codes: all exit-code contracts hold"
