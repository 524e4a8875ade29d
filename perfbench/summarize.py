#!/usr/bin/env python3
"""Median and quartiles of each metric over several benchmark runs.

    python3 perfbench/summarize.py RESULTS.json... [--against RESULTS.json...]

RESULTS files are the ones run.py writes to ``perfbench/_work/results/``.
For each workload and metric this prints the number of runs, the median,
the quartiles and the spread (q3 - q1) / median next to the metric's bound
in BENCHMARK.json.  With ``--against`` it also prints how far the median
moved from the other set's median, as a share of that median, and flags a
move that is worse than the bound.  ``--json FILE`` writes the summary, with
the machine metadata of the first run and the number of runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, quartiles


def collect(paths):
    """{(workload, trace): {metric: (unit, [run medians])}}, run counts."""
    out = defaultdict(lambda: defaultdict(lambda: [None, []]))
    for path in paths:
        res = json.loads(Path(path).read_text())
        # a traced run reports every workload's per-layer metrics
        workload = "all" if res["trace"] else res["workload"]
        group = out[(workload, res["trace"])]
        for name, m in res["metrics"].items():
            group[name][0] = m["unit"]
            group[name][1].append(m["median"])
    return out


def summarize(paths, against=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_spec = {m["name"]: m
                   for m in spec["end_to_end"] + spec["per_layer"]}
    base = collect(against) if against else {}
    meta = json.loads(Path(paths[0]).read_text())["metadata"]
    summary = {"metadata": {**meta, "runs": len(paths)}}
    for (workload, trace), metrics in sorted(collect(paths).items()):
        print(f"== {workload} (trace {trace})")
        rows = summary.setdefault(f"{workload}/trace{trace}", {})
        for name, (unit, values) in metrics.items():
            q1, med, q3 = quartiles(values)
            m = metric_spec.get(name, {})
            bound = m.get("bound")
            spread = (q3 - q1) / med if med else float("nan")
            row = {"unit": unit, "runs": len(values), "median": med,
                   "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            line = (f"{name:<48} {med:>12.6g} {unit:<6} q1={q1:.6g} "
                    f"q3={q3:.6g} n={len(values)} spread={spread:.4f}")
            if bound is not None:
                line += f" bound={bound}"
            old = base.get((workload, trace), {}).get(name)
            if old and old[1]:
                old_med = quartiles(old[1])[1]
                move = (med - old_med) / old_med
                if m.get("better") == "higher":
                    move = -move
                row["worse_by"] = move
                line += f" worse_by={move:+.4f}"
                if bound is not None and move > bound:
                    line += " REGRESSION"
            print(line)
            rows[name] = row
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+")
    ap.add_argument("--against", nargs="+")
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args(argv)
    summary = summarize(args.results, args.against)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
