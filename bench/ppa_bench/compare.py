#!/usr/bin/env python3
"""Compare two sets of ppa_bench runs, metric by metric.

  python3 bench/ppa_bench/compare.py A.jsonl B.jsonl

A and B are files of run records, one JSON object per line, as
`run.py --out FILE` appends them. A is the base. For each workload and each
end_to_end metric of BENCHMARK.json the comparator prints each side's
median and quartiles over its runs, the ratio B/A, and a verdict under the
metric's bound:

  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than A's own spread
              (the distance between A's quartiles, as a share of A's median)
  same        neither
  unresolved  a side's spread is wider than the bound, unless every run of
              B beats every run of A (then: better); or a side has fewer
              than MIN_RUNS runs, too few for quartiles to mean much

Every other metric the records carry (the per-layer metrics of traced runs,
and the extras such as lat_s.p99.hi) is listed with medians and the ratio
only. Each summary shows how many runs it is over (n=). Every run counts:
the bench itself leaves out of its statistics the ops the hypervisor stole
CPU time from (see StealMonitor in harness.hpp).

Exits 1 when any end-to-end metric is worse or unresolved. Standard library
only.
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_RUNS = 5  # per side


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def values(records, name):
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def summary(xs):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3


def verdict(a, b, better, bound):
    """Verdict for B against base A (lists of run values)."""
    if min(len(a), len(b)) < MIN_RUNS:
        return "unresolved"
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    spread_a = (q3_a - q1_a) / abs(med_a) if med_a else float("inf")
    spread_b = (q3_b - q1_b) / abs(med_b) if med_b else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else float("inf")
    b_beats_all = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread_a, spread_b) > bound:
        return "better" if b_beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread_a:
        return "better"
    return "same"


def fmt(xs):
    med, q1, q3 = summary(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(xs)}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    gated = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    failed = False
    for workload in [w["name"] for w in bench["workloads"]]:
        a_runs, b_runs = base.get(workload, []), change.get(workload, [])
        print(f"{workload}  (A = {sys.argv[1]}, the base; B = {sys.argv[2]})")
        if not a_runs or not b_runs:
            print("  no runs on one side: unresolved")
            failed = True
            continue
        if min(len(a_runs), len(b_runs)) < MIN_RUNS:
            print(f"  fewer than {MIN_RUNS} runs on a side: every verdict is unresolved")
        print(f"  {'metric':36} {'A median [q1, q3]':30} {'B median [q1, q3]':30} "
              f"{'B/A':>7}  verdict")
        names = dict.fromkeys(n for r in a_runs + b_runs for n in r["metrics"])
        for name in names:
            a, b = values(a_runs, name), values(b_runs, name)
            if not a or not b:
                continue
            ratio = summary(b)[0] / summary(a)[0] if summary(a)[0] else float("nan")
            if name in gated:
                metric = gated[name]
                word = verdict(a, b, metric["better"], metric["bound"])
                failed = failed or word in ("worse", "unresolved")
            else:
                word = "-"
            print(f"  {name:36} {fmt(a):30} {fmt(b):30} {ratio:7.3f}  {word}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
