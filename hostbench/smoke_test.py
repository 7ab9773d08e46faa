#!/usr/bin/env python3
"""Smoke test of the host-performance benchmark itself.

    python3 hostbench/smoke_test.py

Runs every workload briefly (--seconds 1), untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit, that no
operation failed, and that results/sweep_cache.csv is byte-unchanged. Also
checks that input generation is byte-for-byte reproducible per seed, that
metrics.json describes exactly the metrics of BENCHMARK.json, and that the
benchmark refuses to run from a directory holding only itself. Exit 0 when
everything holds.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own module)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def cache_digest():
    return hashlib.sha256(run.CACHE.read_bytes()).hexdigest()


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "metrics.json").read_text())
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[section]]
        check(sorted(names) == sorted(catalog[section]),
              f"metrics.json lists exactly the {section} metrics")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py knows")

    for wl in run.WORKLOADS:
        a, b = run.make_inputs(wl, 5, 25), run.make_inputs(wl, 5, 25)
        check(a == b and a != run.make_inputs(wl, 6, 25),
              f"{wl}: same seed gives the same inputs, another seed others")

    before = cache_digest()
    for wl in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            tag = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            metrics = result["metrics"]
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0, f"{tag}: correct, failed_frac 0")
            check(all(m["name"] in metrics and
                      metrics[m["name"]]["unit"] == m["unit"]
                      for m in bench[section]) and
                  len(metrics) == len(bench[section]),
                  f"{tag}: every {section} metric printed with its unit")
            if trace == 0:
                check(all(m["value"] > 0 for m in metrics.values()),
                      f"{tag}: every end-to-end metric is positive")
    check(cache_digest() == before, "results/sweep_cache.csv byte-unchanged")

    # Only BENCHMARK.json and hostbench/: no sources, no cache, no result.
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "a directory with only the benchmark fails without a result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
