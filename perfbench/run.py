#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark (Release) under the build root: $CARGO_TARGET_DIR
when set, else .bench_build/. Store files live in a per-run directory there
and are removed afterwards; the traced run leaves its spans in
<build root>/traces/<workload>.spans.csv, and every run appends a record
(environment stamp, arguments, result) to <build root>/results/runs.jsonl,
the input of perfbench/compare.py.

Standard output ends with one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}), the end-to-end metrics of BENCHMARK.json
with --trace 0 and its per-layer metrics with --trace 1. The run fails
(non-zero exit, no result) when the sources are missing, the build fails,
or the program does not report exactly the metrics BENCHMARK.json names.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(out_dir):
    """Configures once, then builds incrementally; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "perfbench_bin")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Problems with the shape of a result (empty when well-formed)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        if got[name].get("unit") != want[name]:
            problems.append("metric %s has unit %r, want %r" % (name, got[name].get("unit"), want[name]))
        if not isinstance(got[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny datasets (self-test)")
    ap.add_argument("--perturb-oracle", action="store_true",
                    help="corrupt one sampled answer; the run must then report correct=false")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "uv_diagram.h")):
        log("library sources not found under", os.path.join(ROOT, "src"))
        return 2
    broot = build_root()
    try:
        binary = build(os.path.join(broot, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed:", e)
        return 2

    work = os.path.join(broot, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(broot, "traces")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".spans.csv")]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_oracle:
        cmd.append("--perturb-oracle")
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("benchmark exited with code", proc.returncode)
        return 1
    env = None
    for line in lines:
        if line.startswith("perfbench-env "):
            env = json.loads(line[len("perfbench-env "):])
    result = json.loads(lines[-1])
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            log(p)
        return 1

    os.makedirs(os.path.join(broot, "results"), exist_ok=True)
    with open(os.path.join(broot, "results", "runs.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "smoke": args.smoke, "wall_s": time.time() - started,
                            "env": env, "result": result}) + "\n")
    print("perfbench-env", json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
