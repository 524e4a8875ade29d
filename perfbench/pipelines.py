"""The benchmark's operations, composed from oocgen's public functions.

Each mode runs in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    pipelines.py run   design Q K S              untraced library pipeline
    pipelines.py trace construct Q K S SPANS     traced construct pipeline
    pipelines.py trace design Q K S SPANS        traced design pipeline
    pipelines.py trace verify FILE SPANS         traced verify pipeline
    pipelines.py cli   SPANS ARG...              traced in-process cli.main
    pipelines.py ladder Q K S                    one JSON line per stage

Construct modes write their four artefacts with the prefix ``out`` in the
working directory.

Spans are taken from outside the library, around calls into the public
functions of ``field``, ``subspaces``, ``ooc`` and ``cli``.  They are kept
in memory and written to SPANS as JSON when the process ends.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import sys
import time

from artefacts import artefact_hashes, artefact_paths
from oocgen import cli
from oocgen.field import field_for_prime_power
from oocgen.ooc import (OocCode, oos_to_dict, read_ooc_text, s_of_w, support,
                        unsupport, verify_oos, write_json, write_ooc_text)
from oocgen.subspaces import (build_coset_family, code_min_distance,
                              construct_g, coset_representatives)

T0 = time.perf_counter()

LAYERS = ("oocgen.field", "oocgen.subspaces", "oocgen.ooc")


class Tracer:
    """Nested spans: id, name, start, end, parent id and run id."""

    def __init__(self, run_id, on_close=None):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._on_close = on_close

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - T0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - T0
            self._stack.pop()
            if self._on_close:
                self._on_close(rec)


class NoTracer:
    def span(self, name):
        return contextlib.nullcontext()


def sweep_shifts(code):
    """Span shifts made by construct_g's min-distance sweep and the coset
    family's disjointness check (computed from r and N)."""
    r, n = len(code.representatives), code.field.N
    orbit = n if r == 1 else 0
    return orbit + n * r * (r + 1) // 2 + n * r * (r - 1) // 2


def ooc_counts(m, n, w):
    """verify_oos work for m words of weight w in Z_n (computed)."""
    shifts = m * (n - 1) + n * m * (m - 1) // 2
    return {"ooc.pairs": m * (m - 1) // 2, "ooc.shifts": shifts,
            "ooc.member_ops": shifts * w}


def _subspace_part(t, q, k, s):
    with t.span("field.create"):
        fld = field_for_prime_power(q, 2 * k)
    with t.span("subspaces.construct_g"):
        code = construct_g(q, k, s)
    with t.span("subspaces.coset_family"):
        family = build_coset_family(code)
    with t.span("ooc.s_of_w"):
        sets = [s_of_w(fld, coset) for coset in family.cosets]
    return fld, code, sets


def _probes(t, code):
    """Single-stage timings, made after the pipeline and outside its span."""
    with t.span("subspaces.code_min_distance"):
        code_min_distance(code)
    with t.span("subspaces.orbits_disjoint"):
        code.orbits_disjoint()
    with t.span("subspaces.coset_representatives"):
        coset_representatives(code.representatives[0])


def _subspace_counts(fld, code, q, k):
    return {"field.elements": fld.order, "subspaces.span_size": q ** k,
            "subspaces.shifts": sweep_shifts(code)}


def construct(t, q, k, s, prefix, probes=False):
    """construct_g -> coset family -> S(W) -> verify -> unsupport -> writes."""
    with t.span("pipeline"):
        fld, code, sets = _subspace_part(t, q, k, s)
        n, w = fld.N, q ** k
        lam = q ** (k - code.min_distance // 2)
        with t.span("ooc.verify_oos"):
            report = verify_oos(sets, lam)
        if not report.passed:
            raise SystemExit(f"self-verification failed: {report.to_dict()}")
        with t.span("ooc.unsupport"):
            words = tuple(unsupport(X, n) for X in sets)
        with t.span("ooc.write"):
            write_ooc_text(OocCode(n, w, lam, words), f"{prefix}.ooc")
            write_json(oos_to_dict(sets), f"{prefix}.oos.json")
            write_json(code.to_dict(), f"{prefix}.code.json")
            write_json(report.to_dict(), f"{prefix}.report.json")
    if probes:
        _probes(t, code)
    return {"sha256": artefact_hashes(prefix),
            "counts": {**_subspace_counts(fld, code, q, k),
                       **ooc_counts(len(sets), n, w),
                       "ooc.bytes_written": sum(map(os.path.getsize,
                                                   artefact_paths(prefix)))}}


def design(t, q, k, s, probes=False):
    """The library pipeline without the verify step."""
    with t.span("pipeline"):
        fld, code, sets = _subspace_part(t, q, k, s)
    if probes:
        _probes(t, code)
    members = json.dumps([X.sorted() for X in sets]).encode()
    return {"min_distance": code.min_distance, "sets": len(sets),
            "members_sha256": hashlib.sha256(members).hexdigest(),
            "counts": _subspace_counts(fld, code, q, k)}


def verify(t, path):
    """read_ooc_text + support -> verify_oos at the file's declared lambda."""
    with t.span("pipeline"):
        with t.span("ooc.read"):
            words, lam = read_ooc_text(path)
            sets = [support(cw) for cw in words]
        with t.span("ooc.verify_oos"):
            report = verify_oos(sets, lam)
    return {"stdout": json.dumps(report.to_dict(), sort_keys=True),
            "counts": {**ooc_counts(len(sets), sets[0].n,
                                    len(sets[0].members)),
                       "ooc.bytes_read": os.path.getsize(path)}}


def traced_cli(t, argv):
    """cli.main in-process, with a span on each call it makes into a layer."""
    for name, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__ in LAYERS:
            layer = fn.__module__.removeprefix("oocgen.")
            setattr(cli, name, _wrap(t, f"{layer}.{name}", fn))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), t.span("cli.main"):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue().strip()}


def _wrap(t, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with t.span(name):
            return fn(*args, **kwargs)
    return traced


def _dump(path, tracer, result):
    with open(path, "w") as f:
        json.dump({"spans": tracer.spans, "result": result}, f)


def main(argv):
    mode, rest = argv[0], argv[1:]
    run_id = f"{os.getpid()}-{mode}"
    if mode == "run":
        q, k, s = map(int, rest[1:4])
        result = design(NoTracer(), q, k, s)
        del result["counts"]
        print(json.dumps(result))
    elif mode == "trace":
        t = Tracer(run_id)
        kind, spans_path = rest[0], rest[-1]
        if kind == "verify":
            result = verify(t, rest[1])
        else:
            q, k, s = map(int, rest[1:4])
            result = (construct(t, q, k, s, "out", probes=True)
                      if kind == "construct" else
                      design(t, q, k, s, probes=True))
        _dump(spans_path, t, result)
    elif mode == "cli":
        t = Tracer(run_id)
        _dump(rest[0], t, traced_cli(t, rest[1:]))
    elif mode == "ladder":
        def emit(rec):
            if rec["parent"] is not None:
                print(json.dumps({"stage": rec["name"],
                                  "s": rec["end"] - rec["start"]}), flush=True)
        q, k, s = map(int, rest[:3])
        construct(Tracer(run_id, on_close=emit), q, k, s, "out")
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
