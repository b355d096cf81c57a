"""Summarise benchmark result sets written by ``run.py --out``.

    python3 perfbench/report.py RESULTS.jsonl
        every run's metrics with their units, then per workload the median,
        quartiles and spread (IQR as a share of the median) of each metric;
    python3 perfbench/report.py PARENT.jsonl CHANGE.jsonl
        per workload and metric both sides' median and quartiles and a verdict.

Verdicts follow perfbench/README.md: ``better`` when the change wins at
least 9 of 10 pairs (ties count for neither) and the medians differ by more
than the parent's IQR; ``unresolved`` when either side's spread is wider
than the metric's bound and not every change run beats every parent run;
``worse`` when the change's median is worse by more than the bound; else
``same``.  Per-layer metrics have no bound: they are ``better`` or
``worse`` by the pairs rule alone.  Runs pair up by workload and seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spec_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def group(records) -> dict:
    """(workload, trace) -> seed -> result, in file order."""
    out: dict = defaultdict(dict)
    for r in records:
        s = r["stamp"]
        out[(s["workload"], s["trace"])][s["seed"]] = r["result"]
    return out


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(parent, change, better, bound) -> str:
    """parent and change are equal-length lists of paired values."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return "better"
    if bound is None:
        return "worse" if losses >= 0.9 * len(parent) and -gain > p3 - p1 else "same"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "same"


def fmt(x) -> str:
    return f"{x:.6g}"


def report_one(records, spec) -> None:
    for r in records:
        s, res = r["stamp"], r["result"]
        print(f"# {s['workload']} seed={s['seed']} trace={int(s['trace'])} "
              f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:48s} {fmt(m['value']):>14s} {m['unit']}")
    print()
    for (workload, trace), runs in group(records).items():
        print(f"## {workload} trace={int(trace)}: {len(runs)} runs, "
              f"failed {sum(r['failed'] for r in runs.values())} of "
              f"{sum(r['attempted'] for r in runs.values())}")
        names = next(iter(runs.values()))["metrics"]
        for name, m in names.items():
            xs = [r["metrics"][name]["value"] for r in runs.values()]
            q1, q2, q3 = quartiles(xs)
            bound = spec.get(name, {}).get("bound")
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:48s} median {fmt(q2):>12s} q1 {fmt(q1):>12s} q3 {fmt(q3):>12s} "
                  f"{m['unit']:6s} spread {spread(xs):7.2%}{note}")
    per_command: dict = defaultdict(list)
    for r in records:
        for cmd, walls in r["detail"].get("per_command_s", {}).items():
            per_command[(r["stamp"]["workload"], cmd)].append(statistics.median(walls))
    if per_command:
        print("\n## per command: median over runs of each run's median wall time")
    for (workload, cmd), xs in per_command.items():
        q1, q2, q3 = quartiles(xs)
        print(f"  {workload:10s} {cmd:48s} {fmt(q2):>8s} s  [{fmt(q1)}, {fmt(q3)}]")


def report_two(parent_records, change_records, spec) -> None:
    parent, change = group(parent_records), group(change_records)
    for key in parent:
        if key not in change:
            print(f"## {key[0]} trace={int(key[1])}: no runs of the change")
            continue
        seeds = [s for s in parent[key] if s in change[key]]
        if seeds:
            pairs = [(parent[key][s], change[key][s]) for s in seeds]
        else:
            pairs = list(zip(parent[key].values(), change[key].values()))
        print(f"## {key[0]} trace={int(key[1])}: {len(pairs)} pairs")
        for name, m in pairs[0][0]["metrics"].items():
            if name not in pairs[0][1]["metrics"]:
                continue
            p = [a["metrics"][name]["value"] for a, _ in pairs]
            c = [b["metrics"][name]["value"] for _, b in pairs]
            info = spec.get(name, {"better": "lower"})
            pq, cq = quartiles(p), quartiles(c)
            v = verdict(p, c, info["better"], info.get("bound"))
            print(f"  {name:48s} parent {fmt(pq[1])} [{fmt(pq[0])}, {fmt(pq[2])}]  "
                  f"change {fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}] {m['unit']}  {v}")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = spec_metrics()
    sets = [load(p) for p in argv]
    if len(sets) == 1:
        report_one(sets[0], spec)
    else:
        report_two(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
