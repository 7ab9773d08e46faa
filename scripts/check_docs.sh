#!/usr/bin/env bash
# Docs drift gate: fails when README/DESIGN disagree with the code.
#
#   scripts/check_docs.sh [build-dir]     # default build dir: build/
#
# Checks:
#  1. The test count README quotes next to `ctest --test-dir build` matches
#     what `ctest -N` reports in the configured build directory.
#  2. Every VLACNN_*/REPRO_* env knob the code actually reads (through the
#     env reader in src/) is documented in both README.md and DESIGN.md.
#  3. Every VLACNN_*/REPRO_* token the docs mention is really read in src/ —
#     no documenting knobs that do not exist. VLACNN_SANITIZE is exempt: it is
#     a CMake option, not an env var.
#  4. The fleet layer stays documented: DESIGN.md keeps the §15 fleet section,
#     README.md mentions the `vlacnn-capacity fleet` subcommand, and the
#     subcommand the docs describe still exists in the binary's usage text.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
fail=0

# -- 1: README test count vs ctest -N ----------------------------------------
actual=$(ctest --test-dir "$BUILD_DIR" -N 2>/dev/null | sed -n 's/^Total Tests: //p')
documented=$(sed -n 's/^ctest --test-dir build *# \([0-9]*\) tests$/\1/p' README.md)
if [ -z "$actual" ]; then
  echo "check_docs: cannot read a test count from 'ctest --test-dir $BUILD_DIR -N'" >&2
  fail=1
elif [ -z "$documented" ]; then
  echo "check_docs: README.md no longer carries the '# N tests' annotation" >&2
  fail=1
elif [ "$actual" != "$documented" ]; then
  echo "check_docs: README says $documented tests, ctest -N reports $actual" >&2
  fail=1
else
  echo "check_docs: test count OK ($actual)"
fi

# -- 2: knobs read in src/ must be documented ---------------------------------
# Every knob is read through common/env.h: an env_text/env_uint/env_positive/
# env_word call, or a PathKnob/IntervalKnob (obs/jsonl_sink.h) declared with
# the knob's name. getenv itself appears in src/common/env.cpp alone.
read_knobs=$(grep -rhoE '(env_[a-z]+|Knob [a-z_]+)\("(VLACNN|REPRO)_[A-Z_]+"' src \
  | sed -E 's/.*\("([A-Z_]+)"/\1/' | sort -u)
if grep -rlE '\bgetenv\(' src | grep -vx 'src/common/env.cpp'; then
  echo "check_docs: getenv outside src/common/env.cpp (the knobs above would miss it)" >&2
  fail=1
fi
for knob in $read_knobs; do
  for doc in README.md DESIGN.md; do
    if ! grep -q "$knob" "$doc"; then
      echo "check_docs: src/ reads \$$knob but $doc does not document it" >&2
      fail=1
    fi
  done
done
echo "check_docs: knobs read in src/: $(echo "$read_knobs" | tr '\n' ' ')"

# -- 3: knobs the docs mention must be read in src/ ---------------------------
doc_knobs=$(grep -hoE '\b(VLACNN|REPRO)_[A-Z_]+' README.md DESIGN.md \
  | sort -u | grep -v '^VLACNN_SANITIZE$' || true)
for knob in $doc_knobs; do
  if ! echo "$read_knobs" | grep -qx "$knob"; then
    echo "check_docs: docs mention \$$knob but nothing in src/ reads it" >&2
    fail=1
  fi
done

# -- 4: fleet docs vs the fleet subcommand ------------------------------------
if ! grep -qE '^## 15\..*[Ff]leet' DESIGN.md; then
  echo "check_docs: DESIGN.md lost the '## 15. Fleet-scale serving' section" >&2
  fail=1
fi
if ! grep -q 'vlacnn-capacity fleet' README.md; then
  echo "check_docs: README.md does not mention 'vlacnn-capacity fleet'" >&2
  fail=1
fi
if [ -x "$BUILD_DIR/tools/vlacnn-capacity" ]; then
  # --help is a usage error by the CLI contract (exit 2), so capture the text
  # first; pipefail would otherwise sink a successful grep.
  fleet_help=$("$BUILD_DIR/tools/vlacnn-capacity" fleet --help 2>&1 || true)
  if ! grep -q '^usage:' <<< "$fleet_help"; then
    echo "check_docs: 'vlacnn-capacity fleet --help' prints no usage text" >&2
    fail=1
  fi
else
  echo "check_docs: $BUILD_DIR/tools/vlacnn-capacity missing; skipping fleet usage check"
fi
echo "check_docs: fleet section/subcommand cross-check done"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: all green"
