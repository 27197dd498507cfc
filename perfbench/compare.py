#!/usr/bin/env python3
"""Compares benchmark runs of two commits, workload by workload.

    python3 perfbench/compare.py PARENT CHANGE [--bench BENCHMARK.json]

PARENT and CHANGE are runs.jsonl files written by perfbench/run.py (or
directories holding one), made with the same benchmark code and settings.
Only untraced, non-smoke runs count. Runs pair up by seed: the i-th run of a
seed on one side with the i-th run of that seed on the other; alternate
which side runs first when making them.

Per workload it prints one row per end-to-end metric of BENCHMARK.json:

  improved    the change wins at least 9/10 of at least ten pairs (ties
              count for neither) and the medians differ, in the better
              direction, by more than the parent's inter-quartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound and not every change run beats every parent run, or an
              apparent gain rests on fewer than ten pairs;
  unchanged   otherwise.

A last row compares failed operations over attempted ones; any increase is
marked worse. The exit code is 1 when a row is worse, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace") == 0 and not rec.get("smoke"):
                runs.append(rec)
    return runs


def pair_up(parent, change, workload):
    """[(parent_record, change_record)] matched by seed and occurrence."""
    def by_seed(runs):
        out = {}
        for r in runs:
            if r["workload"] == workload:
                out.setdefault(r["seed"], []).append(r)
        return out
    p, c = by_seed(parent), by_seed(change)
    pairs = []
    for seed in sorted(set(p) & set(c)):
        pairs += list(zip(p[seed], c[seed]))
    return pairs


def quartile_spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, pairs):
    """(verdict, parent median, change median, wins, pairs, parent IQR)."""
    name, lower_better, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
    cv = [c["result"]["metrics"][name]["value"] for _, c in pairs]
    better = (lambda a, b: a < b) if lower_better else (lambda a, b: a > b)
    wins = sum(1 for a, b in zip(pv, cv) if better(b, a))
    mp, mc = statistics.median(pv), statistics.median(cv)
    iqr = quartile_spread(pv)
    scale = abs(mp) if mp != 0 else 1.0
    worse_by = ((mc - mp) if lower_better else (mp - mc)) / scale
    all_better = all(better(b, a) for b in cv for a in pv)
    gain = better(mc, mp) and abs(mc - mp) > iqr and wins >= WIN_SHARE * len(pairs)
    if gain and len(pairs) >= MIN_PAIRS:
        v = "improved"
    elif gain or (iqr / scale > bound and not all_better):
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, mp, mc, wins, len(pairs), iqr


def failed_frac(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)
    any_worse = False
    for wl in bench["workloads"]:
        pairs = pair_up(parent, change, wl["name"])
        print("== %s (%d pairs)" % (wl["name"], len(pairs)))
        if not pairs:
            print("   no paired runs")
            continue
        print("   %-20s %14s %14s %7s %12s  %-10s bound" %
              ("metric", "parent p50", "change p50", "wins", "parent IQR", "verdict"))
        for metric in bench["end_to_end"]:
            v, mp, mc, wins, n, iqr = verdict(metric, pairs)
            any_worse |= v == "worse"
            print("   %-20s %14.6g %14.6g %3d/%-3d %12.6g  %-10s %.2f" %
                  (metric["name"], mp, mc, wins, n, iqr, v, metric["bound"]))
        fp = failed_frac([p for p, _ in pairs])
        fc = failed_frac([c for _, c in pairs])
        v = "worse" if fc > fp else "unchanged"
        any_worse |= v == "worse"
        print("   %-20s %14.6g %14.6g %7s %12s  %s" % ("failed_frac", fp, fc, "", "", v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
