#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about 10 s).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the workloads and metrics run.py
produces, that the result schema is complete for a q=3, k=2 construct, a
q=3, k=2 design and a small dense verify file, traced and untraced, and
that a deliberately wrong expected output drives the error rate to 1.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout

from run import (END_TO_END, ROOT, WORKLOADS, BenchError, Workload, execute,
                 load_expected, per_layer_names)

TINY = [Workload("tiny-construct", "construct", (3, 2, 1)),
        Workload("tiny-design", "design", (3, 2, 1)),
        Workload("tiny-verify", "verify", (200, 50, 5))]
KEYS = {"correct", "attempted", "failed", "metrics"}
problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)


def quiet_execute(wl, workloads, traced, expected):
    with redirect_stdout(io.StringIO()):
        final, _ = execute(wl, workloads, 1, 0, traced, expected)
    expect(set(final) == KEYS, f"{wl.name}: result keys {sorted(final)}")
    return final


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(END_TO_END), "BENCHMARK.json end_to_end differs")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == per_layer_names(WORKLOADS.values()),
           "BENCHMARK.json per_layer differs from run.LAYER_METRICS")


def check_schema(expected):
    names = [n for n, _ in END_TO_END]
    for wl in TINY:
        final = quiet_execute(wl, TINY, False, expected)
        expect(final["correct"] and final["failed"] == 0,
               f"{wl.name}: {final['failed']} of {final['attempted']} failed")
        for name in names:
            m = final["metrics"].get(name)
            expect(m is not None and m["value"] > 0,
                   f"{wl.name}: end-to-end metric {name} missing or 0")
    final = quiet_execute(TINY[0], TINY, True, expected)
    expect(final["correct"], f"traced run failed: {final}")
    missing = [n for n, _, _ in per_layer_names(TINY)
               if n not in final["metrics"]]
    expect(not missing, f"traced run lacks {missing}")


def check_gate(expected):
    wrong = copy.deepcopy(expected)
    wrong["construct"]["3,2,1"]["sha256"][0] = "0" * 64
    wrong["design"]["3,2,1"]["members_sha256"] = "0" * 64
    for wl in TINY[:2]:
        final = quiet_execute(wl, TINY, False, wrong)
        rate = final["failed"] / final["attempted"]
        expect(rate == 1 and not final["correct"],
               f"{wl.name}: a wrong expected hash gave error rate {rate}")
    wrong["verify"] = {"200,50,5": {"1": "{}"}}
    try:
        quiet_execute(TINY[2], TINY, False, wrong)
        problems.append("a wrong recorded verify report was not caught")
    except BenchError:
        pass


def main():
    expected = load_expected()
    check_spec()
    check_schema(expected)
    check_gate(expected)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
