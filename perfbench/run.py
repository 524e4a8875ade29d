#!/usr/bin/env python3
"""The oocgen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; oocgen is imported from ``src``.
Every operation is one ``oocgen`` run in a fresh interpreter, one at a time
(a closed loop with a single client), as a user runs it.  Each operation's
output is checked against values recorded from the seed commit
(``expected.json``) or, for the seeded verify input, against an independent
difference count (``dense.py``).

``--trace 0`` measures the end-to-end metrics of one workload for S seconds.
``--trace 1`` is the separate traced run: for every workload it runs one
untraced operation, the same pipeline composed from public functions with a
span around each call into a layer, and ``cli.main`` in-process with a span
on each call it makes into a layer, until S seconds have passed.  Per-layer
metrics are named ``<workload>.<layer>.<metric>``, so every traced run
reports every one of them.

The run prints every metric by name with its median, quartiles and unit,
and under each per-layer metric the end-to-end metric and workload it
should move (``LAYER_METRICS``).  Its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the error rate.  Full results, with machine
metadata, go to ``perfbench/_work/results/`` and spans to
``perfbench/_work/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from artefacts import artefact_hashes

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
WORK = HERE / "_work"
PIPELINES = str(HERE / "pipelines.py")
CLI = ["-c", "from oocgen.cli import run; run()"]

DEV_SEED = 1       # used while writing the benchmark and any change
HOLDOUT_SEED = 2   # kept back to check a claim on data not used to make it
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # construct | design | verify
    params: tuple    # (q, k, s), or (n, w, words) for verify

    @property
    def key(self):
        return ",".join(map(str, self.params))


WORKLOADS = {wl.name: wl for wl in (
    # self-verifying build on sparse sets (w/n = 1/49); ~85% verify_oos
    Workload("construct-q7k2", "construct", (7, 2, 1)),
    # field tables and subspace sweeps at n = 59048; no verify step
    Workload("design-q3k5", "design", (3, 5, 1)),
    # a foreign, dense (w/n = 1/4) file whose verdict is a failure
    Workload("verify-dense", "verify", (2000, 500, 10)),
)}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# Per-layer metrics of each workload kind: (suffix, unit, better, the
# end-to-end metric and workload it should move).  Counts are computed from
# input sizes, not measured; they size the work behind a timed span.
_FIELD = [
    ("field.create_s", "s", "lower",
     "wall_s and peak_rss_mb on design-q3k5; nothing on verify-dense"),
    ("field.elements", "count", "lower",
     "computed: q^m; sizes field.create_s, so wall_s and peak_rss_mb on "
     "design-q3k5"),
    ("field.self_s", "s", "lower",
     "wall_s on design-q3k5; under 1% of wall_s on construct-q7k2"),
]
_SUBSPACES = [
    ("subspaces.construct_g_s", "s", "lower",
     "wall_s on design-q3k5; a little on construct-q7k2"),
    ("subspaces.coset_family_s", "s", "lower",
     "wall_s on design-q3k5; a little on construct-q7k2"),
    ("subspaces.code_min_distance_s", "s", "lower",
     "probe after the pipeline, inside construct_g_s: wall_s on design-q3k5"),
    ("subspaces.orbits_disjoint_s", "s", "lower",
     "probe after the pipeline, inside coset_family_s: wall_s on "
     "design-q3k5"),
    ("subspaces.coset_representatives_s", "s", "lower",
     "probe after the pipeline, inside coset_family_s: wall_s on "
     "design-q3k5"),
    ("subspaces.span_size", "count", "lower",
     "computed: q^k; sizes each span sweep, so wall_s on design-q3k5"),
    ("subspaces.shifts", "count", "lower",
     "computed: span shifts of the min-distance and disjointness sweeps; "
     "wall_s on design-q3k5"),
    ("subspaces.self_s", "s", "lower",
     "wall_s on design-q3k5; about 3% of wall_s on construct-q7k2"),
]
_VERIFY = [
    ("ooc.verify_oos_s", "s", "lower",
     "wall_s and cpu_s on construct-q7k2 and verify-dense"),
    ("ooc.pairs", "count", "lower",
     "computed: m(m-1)/2 word pairs; sizes verify_oos_s, so wall_s and cpu_s "
     "on construct-q7k2 and verify-dense"),
    ("ooc.shifts", "count", "lower",
     "computed: m(n-1) + n*m(m-1)/2; sizes verify_oos_s, so wall_s and "
     "cpu_s on construct-q7k2 and verify-dense"),
    ("ooc.member_ops", "count", "lower",
     "computed: shifts * w; sizes verify_oos_s, so wall_s and cpu_s on "
     "construct-q7k2 and verify-dense"),
    ("ooc.shift_rate", "1/s", "higher",
     "shifts per verify_oos second; a higher rate lowers wall_s and cpu_s "
     "on construct-q7k2 and verify-dense"),
]
_CLI = [
    ("cli.main_s", "s", "lower",
     "in-process cli.main: wall_s less setup_s on construct-q7k2 and "
     "verify-dense"),
    ("cli.glue_s", "s", "lower",
     "cli.main_s minus its calls into layers: wall_s on construct-q7k2 and "
     "verify-dense"),
]
_OOC_SELF = [("ooc.self_s", "s", "lower",
              "wall_s on construct-q7k2 and verify-dense; the S(W) share of "
              "wall_s on design-q3k5")]
_OVERHEAD = [("trace.overhead_ratio", "ratio", "lower",
              "traced pipeline process wall / untraced wall_s; moves no "
              "end-to-end metric, it shows how far tracing skews the spans")]
LAYER_METRICS = {
    "construct": _FIELD + _SUBSPACES + [
        ("ooc.s_of_w_s", "s", "lower", "wall_s on construct-q7k2")
    ] + _VERIFY + [
        ("ooc.unsupport_s", "s", "lower", "wall_s on construct-q7k2"),
        ("ooc.write_s", "s", "lower", "wall_s on construct-q7k2"),
        ("ooc.bytes_written", "B", "lower",
         "computed: the four artefacts; sizes ooc.write_s, so wall_s on "
         "construct-q7k2"),
    ] + _OOC_SELF + _CLI + _OVERHEAD,
    "design": _FIELD + _SUBSPACES + [
        ("ooc.s_of_w_s", "s", "lower", "wall_s on design-q3k5"),
    ] + _OOC_SELF + _OVERHEAD,
    "verify": [
        ("ooc.read_s", "s", "lower",
         "read_ooc_text + support; wall_s on verify-dense"),
        ("ooc.bytes_read", "B", "lower",
         "computed: input file size; sizes ooc.read_s, so wall_s on "
         "verify-dense"),
    ] + _VERIFY + _OOC_SELF + _CLI + _OVERHEAD,
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, bad expectations)."""


def per_layer_names(workloads):
    return [(f"{wl.name}.{suffix}", unit, better)
            for wl in workloads
            for suffix, unit, better, _ in LAYER_METRICS[wl.kind]]


def per_layer_moves(workloads):
    """{per-layer metric: the end-to-end metric and workload it moves}."""
    return {f"{wl.name}.{suffix}": moves
            for wl in workloads
            for suffix, _, _, moves in LAYER_METRICS[wl.kind]}


def child_env():
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=f"{src}:{path}" if path else src)


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: str
    stderr: str


def spawn(args, cwd):
    """Run one fresh interpreter to completion; wall from spawn to exit."""
    cwd.mkdir(parents=True, exist_ok=True)
    out, err = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd,
                                env=child_env(), stdout=fo, stderr=fe)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, proc.returncode,
                  out.read_text().strip(), err.read_text())


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_sources():
    """Fail unless ``import oocgen`` resolves to this checkout's src."""
    src = ROOT / "src" / "oocgen"
    if not (src / "__init__.py").is_file():
        raise BenchError(f"no oocgen sources at {src}")
    s = spawn(["-c", "import oocgen; print(oocgen.__file__)"],
              fresh_dir(WORK / "ops" / "setup"))
    if s.exit != 0 or not Path(s.stdout).resolve().is_relative_to(src):
        raise BenchError(f"import oocgen did not load {src}: {s.stderr}")


def load_expected():
    with open(HERE / "expected.json") as f:
        return json.load(f)


def prepare(wl, seed, expected):
    """The workload's expected outputs, generating its input if seeded."""
    if wl.kind != "verify":
        return dict(expected[wl.kind][wl.key])
    import dense  # numpy is needed only to make and check the dense input

    n, w, words = wl.params
    path = WORK / "inputs" / f"{wl.name}-seed{seed}.ooc"
    path.parent.mkdir(parents=True, exist_ok=True)
    _, line = dense.make_input(path, seed, n, w, words)
    recorded = expected.get("verify", {}).get(wl.key, {}).get(str(seed))
    if recorded is not None and recorded != line:
        raise BenchError(f"difference count disagrees with the recorded "
                         f"report for seed {seed}")
    return {"input": str(path), "stdout": line}


def cli_argv(wl, ctx):
    """The ``oocgen`` arguments of a construct or verify operation."""
    if wl.kind == "construct":
        q, k, s = wl.params
        return ["construct", "--q", str(q), "--k", str(k), "--s", str(s),
                "--out", "out"]
    return ["verify", ctx["input"]]


def op_args(wl, ctx):
    if wl.kind == "design":
        return [PIPELINES, "run", "design", *map(str, wl.params)]
    return CLI + cli_argv(wl, ctx)


def check_op(wl, ctx, exit_code, stdout, cwd):
    """None if the operation's outputs are as expected, else the reason."""
    if wl.kind == "construct":
        if exit_code != 0 or stdout != ctx["stdout"]:
            return f"exit {exit_code}, stdout {stdout[:80]!r}"
        if artefact_hashes(cwd / "out") != ctx["sha256"]:
            return "artefact hashes differ"
    elif wl.kind == "design":
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            got = None
        if exit_code != 0 or got != ctx:
            return f"exit {exit_code}, summary {stdout[:80]!r}"
    elif exit_code != 1 or stdout != ctx["stdout"]:
        return f"exit {exit_code}, report {stdout[:80]!r}"
    return None


def check_traced(wl, ctx, result):
    if wl.kind == "construct":
        ok = result["sha256"] == ctx["sha256"]
    elif wl.kind == "design":
        ok = all(result[key] == ctx[key] for key in ctx)
    else:
        ok = result["stdout"] == ctx["stdout"]
    return None if ok else "traced pipeline output differs"


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(samples, units):
    out = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                     "n": len(values), "samples": values}
    return out


class Run:
    """Attempted/failed operation counts and the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")


def measure(wl, seed, seconds, expected):
    """End-to-end metrics of one workload (tracing off)."""
    run = Run()
    ctx = prepare(wl, seed, expected)
    setup_dir = fresh_dir(WORK / "ops" / "setup")

    def setup():
        return spawn(["-c", "import oocgen"], setup_dir).wall

    setup()  # fills the bytecode cache
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [],
               "setup_s": [setup() for _ in range(SETUP_REPEATS)]}
    t0 = time.perf_counter()
    while True:
        cwd = fresh_dir(WORK / "ops" / wl.name)
        s = spawn(op_args(wl, ctx), cwd)
        run.record(wl.name, check_op(wl, ctx, s.exit, s.stdout, cwd))
        samples["wall_s"].append(s.wall)
        samples["cpu_s"].append(s.cpu)
        samples["peak_rss_mb"].append(s.rss_mb)
        # one more set-up sample per operation spreads them over the run
        samples["setup_s"].append(setup())
        if time.perf_counter() - t0 + s.wall > seconds:
            break
    return run, summarize(samples, dict(END_TO_END))


def self_times(spans):
    child = {}
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] = (child.get(sp["parent"], 0.0)
                                   + sp["end"] - sp["start"])
    return {sp["id"]: sp["end"] - sp["start"] - child.get(sp["id"], 0.0)
            for sp in spans}


def layer_values(wl, pipe_spans, counts, cli_spans, untraced_wall,
                 traced_wall):
    """One traced round's per-layer values, keyed by metric suffix."""
    v = dict(counts)
    selfs = self_times(pipe_spans)
    probe_s = 0.0
    for sp in pipe_spans:
        if sp["name"] == "pipeline":
            continue
        dur = sp["end"] - sp["start"]
        key = f"{sp['name']}_s"
        v[key] = v.get(key, 0.0) + dur
        if sp["parent"] is None:
            probe_s += dur
        else:
            layer = f"{sp['name'].split('.')[0]}.self_s"
            v[layer] = v.get(layer, 0.0) + selfs[sp["id"]]
    if "ooc.verify_oos_s" in v:
        v["ooc.shift_rate"] = v["ooc.shifts"] / v["ooc.verify_oos_s"]
    if cli_spans:
        main = next(sp for sp in cli_spans if sp["name"] == "cli.main")
        v["cli.main_s"] = main["end"] - main["start"]
        v["cli.glue_s"] = self_times(cli_spans)[main["id"]]
    v["trace.overhead_ratio"] = (traced_wall - probe_s) / untraced_wall
    return v


def traced_child(run, what, args, cwd, check):
    """Run one traced process; return its spans document, or None."""
    s = spawn(args, cwd)
    if s.exit != 0:
        run.record(what, f"exit {s.exit}: {s.stderr[-200:]}")
        return None, s
    doc = json.loads((cwd / "spans.json").read_text())
    run.record(what, check(doc["result"]))
    return doc, s


def trace_workload(wl, ctx, run):
    """One traced round: (per-layer values, spans), or None on failure."""
    cwd = fresh_dir(WORK / "ops" / wl.name)
    base = spawn(op_args(wl, ctx), cwd)
    run.record(wl.name, check_op(wl, ctx, base.exit, base.stdout, cwd))

    args = [ctx["input"]] if wl.kind == "verify" else map(str, wl.params)
    pipe, traced = traced_child(
        run, f"{wl.name} traced",
        [PIPELINES, "trace", wl.kind, *args, "spans.json"],
        fresh_dir(WORK / "ops" / f"{wl.name}-traced"),
        lambda result: check_traced(wl, ctx, result))
    cli = None
    if wl.kind != "design":
        cwd = fresh_dir(WORK / "ops" / f"{wl.name}-cli")
        cli, _ = traced_child(
            run, f"{wl.name} cli",
            [PIPELINES, "cli", "spans.json", *cli_argv(wl, ctx)], cwd,
            lambda r: check_op(wl, ctx, r["exit"], r["stdout"], cwd))
        if cli is None:
            return None
    if pipe is None:
        return None
    values = layer_values(wl, pipe["spans"], pipe["result"]["counts"],
                          cli["spans"] if cli else None, base.wall,
                          traced.wall)
    return values, pipe["spans"] + (cli["spans"] if cli else [])


def trace(workloads, seed, seconds, expected):
    """Per-layer metrics of every workload (tracing on), with spans."""
    run = Run()
    ctxs = {wl.name: prepare(wl, seed, expected) for wl in workloads}
    samples, units, spans = {}, {}, []
    for name, unit, _ in per_layer_names(workloads):
        samples[name], units[name] = [], unit
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for wl in workloads:
            got = trace_workload(wl, ctxs[wl.name], run)
            if got is None:
                continue
            values, wl_spans = got
            for suffix, *_ in LAYER_METRICS[wl.kind]:
                samples[f"{wl.name}.{suffix}"].append(values[suffix])
            spans += wl_spans
        now = time.perf_counter()
        if now - t0 + (now - t_round) > seconds:
            break
    samples = {k: v for k, v in samples.items() if v}
    return run, summarize(samples, units), spans


def metadata(runs):
    from importlib.metadata import PackageNotFoundError, version

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "mem_total_mb": os.sysconf("SC_PHYS_PAGES")
            * os.sysconf("SC_PAGE_SIZE") // 2 ** 20,
            "python": sys.version.split()[0], "numpy": ver("numpy"),
            "sympy": ver("sympy"), "commit": commit, "runs": runs,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def seed_role(seed):
    return {DEV_SEED: "dev", HOLDOUT_SEED: "holdout"}.get(seed, "other")


def report(run, metrics, names):
    """Print every metric with its unit; return the final JSON object."""
    failed = len(run.failures)
    for name in names:
        m = metrics.get(name)
        if m is None:
            print(f"{name:<52} missing")
            continue
        print(f"{name:<52} {m['median']:>14.6g} {m['unit']:<6} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
        if "moves" in m:
            print(f"{'':<4}moves: {m['moves']}")
    print(f"{'error_rate':<52} {failed / run.attempted:>14.6g} ratio  "
          f"({failed} of {run.attempted} operations)")
    for reason in run.failures:
        print(f"FAILED {reason}")
    return {"correct": failed == 0 and all(n in metrics for n in names),
            "attempted": run.attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n]["median"],
                            "unit": metrics[n]["unit"]}
                        for n in names if n in metrics}}


def execute(workload, workloads, seed, seconds, traced, expected):
    """Run, print the table and return (final JSON object, results file)."""
    check_sources()
    if traced:
        order = [workload] + [wl for wl in workloads if wl is not workload]
        run, metrics, spans = trace(order, seed, seconds, expected)
        names = [n for n, _, _ in per_layer_names(workloads)]
        for name, moves in per_layer_moves(workloads).items():
            if name in metrics:
                metrics[name]["moves"] = moves
        span_file = WORK / "trace" / f"{workload.name}-seed{seed}.json"
        span_file.parent.mkdir(parents=True, exist_ok=True)
        span_file.write_text(json.dumps(spans))
    else:
        run, metrics = measure(workload, seed, seconds, expected)
        names = [n for n, _ in END_TO_END]
    final = report(run, metrics, names)
    results = {"workload": workload.name, "seed": seed,
               "seed_role": seed_role(seed), "trace": int(traced),
               "seconds": seconds, "attempted": run.attempted,
               "failed": len(run.failures),
               "error_rate": len(run.failures) / run.attempted,
               "failures": run.failures, "metrics": metrics,
               "metadata": metadata(run.attempted)}
    path = (WORK / "results"
            / f"{workload.name}-seed{seed}-trace{int(traced)}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")
    return final, path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        final, path = execute(wl, list(WORKLOADS.values()), args.seed,
                              args.seconds, args.trace == 1, load_expected())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
