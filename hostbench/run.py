#!/usr/bin/env python3
"""Host-performance benchmark of vlacnn: one command per workload.

    python3 hostbench/run.py --workload sweep-cold --seed 1 --seconds 25 --trace 0

Run from anywhere; paths resolve against the repository root (the parent of
this directory). Each run

  1. builds hostbench/ (and with it the library from src/) into
     $CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench;
  2. generates the workload's inputs from --seed (same seed, same bytes);
  3. runs the driver with VLACNN_THREADS=1 in a scratch directory under the
     build tree, on private copies of results/sweep_cache.csv;
  4. checks the outputs and that the committed cache is byte-unchanged;
  5. prints the inputs and every metric by name and unit, then, as the last
     line, {"correct", "attempted", "failed", "metrics"} as JSON.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced run (spans go to <build>/hostbench/spans/).
metrics.json records which workloads each metric applies to and which
end-to-end metric each per-layer one moves; a per-layer metric whose layer a
workload never calls reads 0 there.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / "results" / "sweep_cache.csv"
WORKLOADS = ("sweep-cold", "plan-warm", "plan-observed")

MB = 1 << 20
ALGOS = ("direct", "gemm3", "gemm6", "winograd")
L2_SIZES = (1 * MB, 64 * MB)
# Antithetic VLEN pairs: every picked layer runs at one short and one long
# vector, so any seed's slice costs the same host time to a few percent.
VLEN_PAIRS = ((512, 4096), (1024, 2048))
NETS = ("vgg16", "yolov3-20")  # at 224 and 608, as committed
LAYERS_PER_STRATUM = 7  # at the BENCHMARK.json run length (25 s)
QUESTIONS_PER_COMBO = 10  # capacity questions per (net, dispatch)
FLEET_PER_ROUTER = 40  # plan-observed asks only these: >= 100 samples
BINARY_TIMEOUT_S = 170


class Rng:
    """splitmix64: a seeded generator whose sequence never depends on the
    Python version."""

    def __init__(self, seed):
        self.state = seed & 0xFFFFFFFFFFFFFFFF

    def u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    def uniform(self):
        return (self.u64() >> 11) / float(1 << 53)

    def below(self, n):
        return self.u64() % n

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs

    def stratified(self, lo, hi, n):
        """n draws, one uniform in each of n equal bins of [lo, hi), shuffled."""
        w = (hi - lo) / n
        return self.shuffle([lo + (i + self.uniform()) * w for i in range(n)])

    def balanced(self, values, n):
        """n values cycling through `values`, shuffled."""
        return self.shuffle([values[i % len(values)] for i in range(n)])


# -- inputs ---------------------------------------------------------------


def committed_keys():
    """(net, layer, algo, vlen, l2) of the committed rows a cold sweep can be
    checked against: VGG-16@224 and YOLOv3-20@608, 8 lanes, integrated, with
    the full breakdown. The cache appends; the last row of a key wins."""
    rows = {}
    with open(CACHE, newline="") as f:
        header = f.readline().rstrip("\n").split(",")
        col = {name: i for i, name in enumerate(header)}
        for line in f:
            r = line.rstrip("\n").split(",")
            if len(r) != len(header):
                continue
            key = (r[col["net"]], int(r[col["layer"]]), r[col["algo"]],
                   int(r[col["vlen"]]), int(r[col["l2_bytes"]]),
                   r[col["lanes"]], r[col["attach"]])
            rows[key] = r[col["compute_cycles"]] != ""
    return {k[:5] for k, has_breakdown in rows.items()
            if has_breakdown and k[0] in NETS and k[5] == "8" and k[6] == "int"}


def sweep_inputs(seed, seconds):
    """Equal counts per algorithm x L2 stratum. Within a stratum the layers
    are a systematic sample of every (net, layer) the algorithm applies to;
    the seed draws each layer's VLEN pair and the order of the points."""
    rng = Rng(seed)
    keys = committed_keys()
    per = min(LAYERS_PER_STRATUM,
              max(1, round(LAYERS_PER_STRATUM * seconds / 25)))
    strata = []
    for algo in ALGOS:
        for l2 in L2_SIZES:
            cands = sorted({(n, l) for (n, l, a, v, s) in keys
                            if a == algo and s == l2 and
                            all((n, l, algo, vl, l2) in keys
                                for pair in VLEN_PAIRS for vl in pair)},
                           key=lambda nl: (NETS.index(nl[0]), nl[1]))
            if len(cands) < per:
                raise SystemExit(f"run.py: too few committed keys for {algo}")
            step = len(cands) / per
            pts = []
            for k in range(per):
                # The offset picks the cheaper of the equally steady samples.
                net, layer = cands[int((k + 0.75) * step)]
                for vlen in VLEN_PAIRS[rng.below(len(VLEN_PAIRS))]:
                    pts.append(f"point {net} {layer} {algo} {vlen} {l2}")
            strata.append(rng.shuffle(pts))
    rng.shuffle(strata)
    # Round-robin over strata, so every prefix of the list stays stratified.
    return [s[i] for i in range(len(strata[0])) for s in strata]


def plan_inputs(seed):
    """Capacity questions over vgg16/yolo20 x oracle/learned/fixed:gemm6 and
    fleet questions over rr/jsq/p2c. Loads, SLOs and mixes are stratified
    draws, so every seed asks an equally hard list."""
    rng = Rng(seed)
    qs = []
    for net, (lo, hi) in (("vgg16", (5.0, 30.0)), ("yolo20", (3.0, 15.0))):
        for dispatch in ("oracle", "learned", "fixed:gemm6"):
            n = QUESTIONS_PER_COMBO
            loads = rng.stratified(lo, hi, n)
            slos = rng.stratified(1000.0, 8000.0, n)
            reqs = rng.balanced((1000, 2000, 4000), n)
            for i in range(n):
                qs.append(f"capacity {net} {dispatch} {loads[i]:.3f} "
                          f"{slos[i]:.1f} {reqs[i]} {rng.below(1 << 32)}")
    for router in ("rr", "jsq", "p2c"):
        n = FLEET_PER_ROUTER
        shares = rng.stratified(0.3, 0.8, n)
        loads = rng.stratified(10.0, 50.0, n)
        slos = rng.stratified(6000.0, 16000.0, n)
        reqs = rng.balanced((500, 1000), n)
        hops = rng.balanced((0, 200000, 2000000), n)
        for i in range(n):
            qs.append(f"fleet {router} {shares[i]:.4f} {loads[i]:.3f} "
                      f"{slos[i]:.1f} {reqs[i]} {rng.below(1 << 32)} "
                      f"{rng.below(1 << 32)} {hops[i]}")
    return rng.shuffle(qs)


def make_inputs(workload, seed, seconds):
    if workload == "sweep-cold":
        lines = sweep_inputs(seed, seconds)
    else:
        lines = plan_inputs(seed)
    if workload == "plan-observed":
        # With the request-trace sink on, a capacity question keeps every
        # SLO-violating request of all 160 grid points, most of them
        # overloaded: ~150 MB and 2 s per 1000-request question. The fleet
        # planner prunes hopeless fleets before simulating, so its traces
        # stay a few MB.
        lines = [q for q in lines if q.startswith("fleet ")]
    return "".join(line + "\n" for line in lines)


# -- build and run --------------------------------------------------------


def build(build_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "hostbench"], check=True, stdout=sys.stderr)
    return build_dir / "hostbench"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(args):
    for needed in (ROOT / "src" / "CMakeLists.txt", CACHE,
                   ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"run.py: missing {needed}; run from a full checkout",
                  file=sys.stderr)
            return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "metrics.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = bench[section]

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root / "hostbench")

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    scratch = build_root / "hostbench" / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        (scratch / "inputs.txt").write_text(inputs)
        cmd = [str(binary), "--workload", args.workload,
               "--inputs", str(scratch / "inputs.txt"), "--cache", str(CACHE),
               "--tmpdir", str(scratch), "--seconds", str(args.seconds),
               "--trace", "1" if args.trace else "0"]
        spans = None
        if args.trace:
            spans = (build_root / "hostbench" / "spans" /
                     f"{args.workload}-seed{args.seed}.jsonl")
            spans.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(spans)]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("VLACNN_", "REPRO_"))}
        env["VLACNN_THREADS"] = "1"
        cache_before = sha256(CACHE)
        proc = subprocess.run(cmd, env=env, cwd=scratch, stdout=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
        cache_unchanged = sha256(CACHE) == cache_before
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        print(f"run.py: hostbench exited {proc.returncode}", file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        print("run.py: hostbench printed no RESULT line", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1][len("RESULT "):])
    metrics = {}
    for m in wanted:
        name = m["name"]
        applies = args.workload in catalog[section][name]["workloads"]
        if name in raw["metrics"]:
            value = raw["metrics"][name]
        elif not applies:
            value = 0.0  # this workload never calls the layer
        else:
            print(f"run.py: hostbench did not report {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    attempted, failed = int(raw["attempted"]), int(raw["failed"])

    for line in lines[:-1]:
        print(line)
    print(f"inputs: seed {args.seed}, {len(inputs.splitlines())} lines, "
          f"sha256 {hashlib.sha256(inputs.encode()).hexdigest()[:16]}")
    if spans is not None:
        print(f"spans: {spans}")
    for name, m in metrics.items():
        alias = catalog[section][name].get("as", {}).get(args.workload)
        shown = f"{name} ({alias})" if alias else name
        print(f"{shown} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed}/{attempted})")
    print(f"results/sweep_cache.csv unchanged: {cache_unchanged}")
    correct = failed == 0 and attempted > 0 and cache_unchanged and finite
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        return run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
