#!/usr/bin/env python3
"""Compares interleaved parent-vs-change pcalbench run sets.

Each run is a record written by `run.py --record FILE`.  Run the parent
and the change alternately (parent first in one pair, change first in
the next), with the same --seconds and a fresh seed per pair, then:

  python3 pcalbench/compare.py --parent p1.json p2.json ... \\
                               --change c1.json c2.json ...

Records pair up in the order given.  For every (workload, metric) the
tool prints each side's median and quartiles, how many pairs the change
won, and a verdict (README.md, "Judging a change"):

  improved      the change won at least 9/10 of the pairs and the medians
                differ, in the metric's better direction, by more than
                the parent's own quartile spread; or, when the parent's
                spread is wider than the bound, every change run beat
                every parent run;
  worse         the change median is worse than the parent median by more
                than the metric's bound (BENCHMARK.json);
  unresolved    the parent's spread is wider than the bound, so "no
                worse" cannot be shown;
  within bound  none of the above.

Per-layer metrics have no bound; they get "improved" or "-".  Exits 1
when any end-to-end metric is "worse".
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {}
    for m in bench["end_to_end"]:
        spec[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        spec[m["name"]] = (m["better"], None)
    return spec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    sign = -1.0 if better == "lower" else 1.0
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cmed - pmed)
    spread = pq3 - pq1
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return wins, "improved"
    if bound is None:
        return wins, "-"
    if gain < -bound * abs(pmed):
        return wins, "worse"
    if pmed and spread / abs(pmed) > bound:
        return wins, "improved" if all_better else "unresolved"
    return wins, "within bound"


def by_workload(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], rec["trace"])
        runs.setdefault(key, []).append(rec["metrics"])
    return runs


def fmt(v):
    return "%.4g" % v


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = p.parse_args(argv)
    spec = load_bounds()
    parent, change = by_workload(args.parent), by_workload(args.change)
    worse = False
    print("%-20s %-26s %-8s %-30s %-30s %-7s %s" % (
        "workload", "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        for name in sorted(p_runs[0]):
            if name not in spec or name not in c_runs[0]:
                continue
            better, bound = spec[name]
            pv = [r[name]["value"] for r in p_runs]
            cv = [r[name]["value"] for r in c_runs]
            wins, v = verdict(pv, cv, better, bound)
            worse = worse or v == "worse"
            pq, cq = quartiles(pv), quartiles(cv)
            print("%-20s %-26s %-8s %-30s %-30s %-7s %s" % (
                key[0], name, p_runs[0][name]["unit"],
                "%s [%s, %s]" % (fmt(pq[1]), fmt(pq[0]), fmt(pq[2])),
                "%s [%s, %s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])),
                "%d/%d" % (wins, min(len(pv), len(cv))), v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
