#!/usr/bin/env python3
"""Self-test of the benchmark itself, on smoke-sized runs.

    python3 perfbench/selftest.py

Checks that
  1. every per-layer metric of BENCHMARK.json is mapped in spec.json to
     the end-to-end metrics and workloads it should move (an empty "moves"
     needs a note saying why);
  2. a smoke run of every workload, untraced and traced, is correct and
     emits every metric BENCHMARK.json names, with its unit;
  3. the output oracle flags a deliberately perturbed answer on every
     workload (the run reports correct=false and at least one failure);
  4. compare.py marks a clear gain as improved and a clear loss as worse.
Exit code 0 when all checks pass.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def smoke_run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_mapping(bench, spec):
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    mapping = spec["per_layer"]
    for m in bench["per_layer"]:
        entry = mapping.get(m["name"])
        if entry is None:
            check(False, "%s is mapped in spec.json" % m["name"])
            continue
        moves_ok = set(entry["moves"]) <= e2e and (entry["moves"] or entry.get("note"))
        wl_ok = entry["workloads"] and set(entry["workloads"]) <= workloads
        check(bool(moves_ok and wl_ok), "%s maps to %s on %s" %
              (m["name"], entry["moves"] or "(no end-to-end metric)", entry["workloads"]))
    extra = set(mapping) - {m["name"] for m in bench["per_layer"]}
    check(not extra, "spec.json maps no metric outside BENCHMARK.json %s" % sorted(extra))


def check_compare(bench):
    metric = bench["end_to_end"][0]
    lower = metric["better"] == "lower"

    def records(scale):
        return [{"workload": bench["workloads"][0]["name"], "seed": s, "trace": 0, "smoke": False,
                 "result": {"attempted": 10, "failed": 0,
                            "metrics": {m["name"]: {"value": (1.0 + 0.01 * (s % 3)) *
                                                    (scale if m is metric else 1.0),
                                                    "unit": m["unit"]}
                                        for m in bench["end_to_end"]}}}
                for s in range(1, 11)]

    d = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(d, exist_ok=True)
    paths = {}
    for name, scale in (("base", 1.0), ("fast", 0.5 if lower else 2.0),
                        ("slow", 2.0 if lower else 0.5)):
        paths[name] = os.path.join(d, name + ".jsonl")
        with open(paths[name], "w") as f:
            for r in records(scale):
                f.write(json.dumps(r) + "\n")
    for change, want in (("fast", "improved"), ("slow", "worse")):
        out = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                              paths["base"], paths[change]],
                             stdout=subprocess.PIPE, text=True).stdout
        row = [l for l in out.splitlines() if l.split()[:1] == [metric["name"]]]
        check(bool(row) and want in row[0].split(),
              "compare.py marks a %s %s as %s" % (change, metric["name"], want))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    check_mapping(bench, spec)
    # Workloads kept runnable but left out of BENCHMARK.json are smoke-tested too.
    workloads = [w["name"] for w in bench["workloads"]] + sorted(spec.get("excluded_workloads", {}))
    for name in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            r = smoke_run(name, trace)
            check(r is not None, "%s trace=%d smoke run finishes" % (name, trace))
            if r is None:
                continue
            check(r["correct"] and r["failed"] == 0, "%s trace=%d is correct" % (name, trace))
            got = r["metrics"]
            missing = [m["name"] for m in bench[section]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, "%s trace=%d emits every %s metric with its unit %s" %
                  (name, trace, section, missing or ""))
        r = smoke_run(name, 0, "--perturb-oracle")
        check(r is not None and not r["correct"] and r["failed"] >= 1,
              "%s: the oracle flags a perturbed answer" % name)
    check_compare(bench)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
