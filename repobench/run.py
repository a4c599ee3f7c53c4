#!/usr/bin/env python3
"""Repository benchmark: builds the rtopex libraries and the benchmark binary
from source, runs one workload, checks its outputs and prints its metrics.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 repobench/run.py --selftest

Run from the repository root. NAME is one of the workloads in
BENCHMARK.json, or all to run each in turn. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of the traced layer tour (its spans are written under the
build directory). The build goes to $CARGO_TARGET_DIR/repobench, or
.bench_build/repobench when that is unset. Every metric is printed with
its unit, median, quartiles and sample count; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every output check passed.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each run must end within 180 s; leave room for the build step.
RUN_DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "repobench"


def build(target):
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"repobench: build step failed: {' '.join(cmd)}")
            return None
    return out / target


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def print_table(metrics, expected):
    """Every metric the binary produced: the gated ones first, then any
    extra figure it reports for reading only (marked "not gated")."""
    names = [s["name"] for s in expected]
    names += sorted(set(metrics) - set(names))
    print(f"{'metric':44} {'unit':6} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>7}  detail")
    for i, name in enumerate(names):
        m = metrics.get(name)
        if m is None:
            continue
        note = m.get("detail", "")
        if i >= len(expected):
            note = "(not gated) " + note
        print(f"{name:44} {m['unit']:6} {fmt(m['value']):>12} "
              f"{fmt(m.get('median')):>12} {fmt(m.get('q1')):>12} "
              f"{fmt(m.get('q3')):>12} {str(m.get('n', '-')):>7}  {note}")


def run_all(args):
    """Every workload in turn; exit 0 only when every run passed."""
    codes = []
    for w in load_benchmark()["workloads"]:
        args.workload = w["name"]
        codes.append(run(args))
        print()
    return max(codes)


def run(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        log(f"repobench: unknown workload {args.workload!r} "
            f"(expected all or one of {', '.join(names)})")
        return 2
    started = time.monotonic()
    binary = build("repobench")
    if binary is None:
        return 1
    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           "1" if args.trace else "0"]
    if args.trace:
        cmd += ["--spans", str(build_dir() /
                               f"spans-{args.workload}-{args.seed}.jsonl")]
    timeout = max(30.0, RUN_DEADLINE_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"repobench: run exceeded {timeout:.0f} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"repobench: no result from the benchmark binary (exit {proc.returncode})")
        return 1

    checks = list(result.get("failed_checks", []))
    metrics = result.get("metrics", {})
    for spec in expected:
        m = metrics.get(spec["name"])
        if m is None or not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            checks.append(f"metric {spec['name']} missing or not a number")
        elif m["unit"] != spec["unit"]:
            checks.append(f"metric {spec['name']} in {m['unit']}, "
                          f"expected {spec['unit']}")
        elif not args.trace and m["value"] <= 0:
            checks.append(f"metric {spec['name']} is not positive")
    if proc.returncode not in (0, 1):
        checks.append(f"benchmark binary exited with code {proc.returncode}")
    correct = bool(result.get("correct")) and not checks

    print(f"repobench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={int(args.trace)}")
    if correct:
        print_table(metrics, expected)
    for c in checks:
        print(f"CHECK FAILED: {c}")
    # A run whose outputs failed a check reports no numbers.
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "metrics": {s["name"]: {"value": metrics[s["name"]]["value"],
                                "unit": metrics[s["name"]]["unit"]}
                    for s in expected if correct},
    }))
    return 0 if correct else 1


def selftest():
    binary = build("repobench_tests")
    if binary is None:
        return 1
    bench = load_benchmark()
    with open(HERE / "layers.json") as f:
        mapped = {e["name"] for e in json.load(f)["per_layer"]}
    listed = {m["name"] for m in bench["per_layer"]}
    if mapped != listed:
        log(f"layers.json and BENCHMARK.json disagree: "
            f"{sorted(mapped ^ listed)}")
        return 1
    return subprocess.run([str(binary)]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
