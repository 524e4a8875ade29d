#!/usr/bin/env python3
"""Non-gating scaling report over the ROADMAP parameter ladder.

    python3 perfbench/ladder.py [--out FILE]

Runs the construct pipeline (field tables, construct_g, coset family, S(W),
verify_oos, unsupport, writes) for each (q, k) with s = 1, one fresh
process per point.  Every stage has the same wall-clock budget, BUDGET_S
seconds; a stage that goes over it is stopped and recorded, and the stages
after it are recorded as skipped, which shows where the scaling limit sits.  Results go to
``perfbench/_work/ladder.json`` unless ``--out`` names another file.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import subprocess
import sys
import time

from run import PIPELINES, WORK, child_env, fresh_dir, metadata

LADDER = ((3, 2), (5, 2), (7, 2), (3, 3), (9, 2), (3, 4), (11, 2), (13, 2),
          (3, 5))
BUDGET_S = 10.0
STAGES = ("field.create", "subspaces.construct_g", "subspaces.coset_family",
          "ooc.s_of_w", "ooc.verify_oos", "ooc.unsupport", "ooc.write")


def run_point(q, k):
    """Stage timings of one point; stops the process at the first stage
    that runs longer than BUDGET_S seconds."""
    cwd = fresh_dir(WORK / "ladder" / f"q{q}k{k}")
    stages, over, buf = {}, None, b""
    t0 = time.perf_counter()
    with open(cwd / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, PIPELINES, "ladder", str(q), str(k), "1"],
            cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=err)
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + BUDGET_S
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    over = STAGES[len(stages)]
                    proc.kill()
                    break
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    rec = json.loads(line)
                    stages[rec["stage"]] = rec["s"]
                    deadline = time.monotonic() + BUDGET_S
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    wall = time.perf_counter() - t0
    done = len(stages) + (over is not None)
    return {"q": q, "k": k, "s": 1, "n": q ** (2 * k) - 1, "w": q ** k,
            "stages_s": stages, "over_budget": over,
            "skipped": list(STAGES[done:]),
            "exit": None if over else proc.returncode,
            "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(WORK / "ladder.json"))
    args = ap.parse_args(argv)
    points = []
    for q, k in LADDER:
        p = run_point(q, k)
        points.append(p)
        times = " ".join(f"{name.split('.')[1]}={sec:.3f}"
                         for name, sec in p["stages_s"].items())
        over = p["over_budget"]
        tail = f" OVER BUDGET in {over}" if over else ""
        print(f"q={q:<2} k={k} n={p['n']:<6} wall={p['wall_s']:.2f}s "
              f"rss={p['peak_rss_mb']:.0f}MB {times}{tail}", flush=True)
    result = {"budget_s": BUDGET_S, "stages": list(STAGES),
              "points": points, "metadata": metadata(len(points))}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"results: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
