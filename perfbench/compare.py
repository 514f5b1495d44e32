"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT/perfbench/out/runs.jsonl CHANGE/perfbench/out/runs.jsonl

Each input holds the run records that run.py appends. Every workload gets
its own rows, traced and untraced runs apart. For each metric the tool
takes each run's reported value and prints both sides' medians and
quartiles over their runs, the pairs the
change won, lost and tied (runs paired by seed, in order), the ratio of the
medians with its base, and a verdict:

* improved   -- the change won at least nine tenths of the pairs and the
                medians differ, in its favour, by more than the parent's
                quartile spread;
* unresolved -- the parent's quartile spread, as a share of its median, is
                wider than the metric's bound, unless every change run reads
                better than every parent run; for a metric without a bound
                (per-layer, and those a run only records), anything else below;
* worse      -- the change's median is worse than the parent's by more than
                the bound, or, without a bound, the pair rule holds against
                the change;
* no worse   -- otherwise; without a bound, only when no pair was lost.

Bounds come from BENCHMARK.json. The verdicts are informational, not a gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BETTER  # noqa: E402


def load_runs(path) -> dict:
    """{(workload, trace): {metric: [(seed, value), ...]}} in file order."""
    rows: dict = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["record"]["workload"], rec["trace"])
            seed = rec["record"]["seed"]
            for name, m in rec["metrics"].items():
                rows.setdefault(key, {}).setdefault(name, []).append((seed, m["value"]))
    return rows


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent, change):
    """Pairs (parent value, change value) of runs with the same seed, the
    k-th run of a seed on one side with the k-th on the other."""
    pending: dict = {}
    for seed, v in parent:
        pending.setdefault(seed, []).append(v)
    pairs = []
    for seed, v in change:
        if pending.get(seed):
            pairs.append((pending[seed].pop(0), v))
    return pairs


def verdict(parent, change, better: str, bound) -> dict:
    sign = 1 if better == "higher" else -1
    pv, cv = [v for _, v in parent], [v for _, v in change]
    p1, pmed, p3 = quartiles(pv)
    c1, cmed, c3 = quartiles(cv)
    pairs = pair_up(parent, change)
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) < 0 for p, c in pairs)
    spread = p3 - p1
    out = {"parent": (pmed, p1, p3), "change": (cmed, c1, c3), "n": (len(pv), len(cv)),
           "won": won, "lost": lost, "tied": len(pairs) - won - lost,
           "ratio": cmed / pmed if pmed else None}
    if pairs and won >= 0.9 * len(pairs) and sign * (cmed - pmed) > spread:
        out["verdict"] = "improved"
    elif bound is None:
        if pairs and lost >= 0.9 * len(pairs) and sign * (pmed - cmed) > spread:
            out["verdict"] = "worse"
        else:
            out["verdict"] = "no worse" if pairs and not lost else "unresolved"
    elif pmed and spread / abs(pmed) > bound and not (
            min(sign * v for v in cv) > max(sign * v for v in pv)):
        out["verdict"] = "unresolved"
    elif pmed and sign * (pmed - cmed) / abs(pmed) > bound:
        out["verdict"] = "worse"
    else:
        out["verdict"] = "no worse"
    return out


def _g(v) -> str:
    return f"{v:.4g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("parent", help="runs.jsonl of the parent commit")
    p.add_argument("change", help="runs.jsonl of the change")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}) ==")
        print(f"{'metric':34s} {'parent med [q1, q3]':>30s} {'change med [q1, q3]':>30s} "
              f"{'ratio (base)':>24s} {'w/l/t':>7s}  verdict")
        for name in sorted(set(parent[key]) & set(change[key])):
            r = verdict(parent[key][name], change[key][name], BETTER.get(name, "lower"),
                        bounds.get(name))
            pm, pq1, pq3 = r["parent"]
            cm, cq1, cq3 = r["change"]
            ratio = (f"x{r['ratio']:.3f} (of {_g(pm)})" if r["ratio"] is not None
                     else f"n/a (of {_g(pm)})")
            print(f"{name:34s} {f'{_g(pm)} [{_g(pq1)}, {_g(pq3)}]':>30s} "
                  f"{f'{_g(cm)} [{_g(cq1)}, {_g(cq3)}]':>30s} {ratio:>24s} "
                  f"{r['won']}/{r['lost']}/{r['tied']:<3d}  {r['verdict']}")
    missing = sorted(set(parent) ^ set(change))
    for workload, trace in missing:
        print(f"\n{workload} ({'traced' if trace else 'untraced'}): runs on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
