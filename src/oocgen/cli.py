"""Command-line front end: construct, verify, bound, table, field-info.

Exit codes: 0 on success/pass, 1 on verification failure, 2 on usage or
data errors and on running out of memory.  Every construct run
self-verifies before writing any file, and writes its four files under
temporary names first, so they appear all or none.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .field import FieldError, field_for_prime_power
from .ooc import (OocError, VerificationError, build_ooc, johnson_bound,
                  oos_from_dict, oos_to_dict, optimality_ratio, params_table,
                  read_ooc_text, verify_oos, write_json, write_ooc_text)
from .subspaces import SubspaceError, code_from_dict, construct_g


def _write_all(prefix, writes):
    """Run each (write, obj, suffix) to a temporary name beside prefix, then
    move all of them into place, so a failed write leaves no partial set."""
    tmp = []
    try:
        for write, obj, suffix in writes:
            tmp.append((f"{prefix}{suffix}.tmp", f"{prefix}{suffix}"))
            write(obj, tmp[-1][0])
        for path, final in tmp:
            os.replace(path, final)
    finally:
        for path, _ in tmp:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def _cmd_construct(args):
    if args.code:
        given = [f"--{o}" for o in "qks" if getattr(args, o) is not None]
        if given:
            print(f"construct takes --code or --q --k --s, not both: got "
                  f"--code with {' '.join(given)}", file=sys.stderr)
            return 2
        with open(args.code) as f:
            code = code_from_dict(json.load(f))
    else:
        if args.q is None or args.k is None or args.s is None:
            print("construct needs either --code or all of --q --k --s",
                  file=sys.stderr)
            return 2
        if args.q < 3:
            print("the explicit construction requires q >= 3 "
                  "(use --code for externally supplied orbits)",
                  file=sys.stderr)
            return 2
        code = construct_g(args.q, args.k, args.s)

    try:
        ooc, params, report = build_ooc(code)
    except VerificationError as exc:
        print(f"self-verification FAILED: {exc.report.to_dict()}",
              file=sys.stderr)
        return 1

    _write_all(args.out, [(write_ooc_text, ooc, ".ooc"),
                          (write_json, oos_to_dict(ooc.codewords),
                           ".oos.json"),
                          (write_json, code.to_dict(), ".code.json"),
                          (write_json, report.to_dict(), ".report.json")])

    if args.format == "json":
        print(json.dumps({"params": params.to_dict(),
                          "report": report.to_dict()}, sort_keys=True))
    else:
        print(f"({params.n},{params.w},{params.lam}) size={params.size} "
              f"J={params.johnson} ratio={params.ratio} pass")
    return 0


def _load_sets(path):
    """Read an OOC bits file or an OOS JSON file; returns (sets, lam).

    The first non-whitespace character picks the format: "{" for JSON.
    """
    with open(path) as f:
        head = next((line.lstrip()[:1] for line in f if line.strip()), "")
    if head == "{":
        with open(path) as f:
            return oos_from_dict(json.load(f)), None
    return read_ooc_text(path)


def _cmd_verify(args):
    sets, file_lam = _load_sets(args.input)
    lam = args.lam if args.lam is not None else file_lam
    if lam is None:
        print("no lambda declared in file; pass --lambda", file=sys.stderr)
        return 2
    report = verify_oos(sets, lam)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0 if report.passed else 1


def _cmd_bound(args):
    j = johnson_bound(args.n, args.w, args.lam)
    if args.size is not None:
        ratio = optimality_ratio(args.size, args.n, args.w, args.lam)
        print(f"J({args.n},{args.w},{args.lam}) = {j}  ratio = {ratio}")
    else:
        print(j)
    return 0


def _cmd_table(args):
    specs = []
    for spec in args.specs:
        q, _, k = spec.partition(",")
        try:
            specs.append((int(q), int(k)))
        except ValueError:
            raise OocError(f"table spec {spec!r} is not of the form q,k "
                           f"(two integers, e.g. 3,2)") from None
    rows = params_table(specs)
    print(f"{'q':>4} {'k':>3} {'n':>10} {'w':>6} {'lambda':>7} "
          f"{'size':>6} {'johnson':>12} ratio")
    for row in rows:
        print(f"{row['q']:>4} {row['k']:>3} {row['n']:>10} {row['w']:>6} "
              f"{row['lambda']:>7} {row['size']:>6} {row['johnson']:>12} "
              f"{row['ratio']}")
    return 0


def _cmd_field_info(args):
    fld = field_for_prime_power(args.q, args.m)
    info = fld.descriptor()
    info["N"] = fld.N
    info["subfield_orders"] = [fld.p ** d for d in range(1, fld.e + 1)
                               if fld.e % d == 0]
    print(json.dumps(info, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oocgen",
        description="Construct and verify optical orthogonal codes from "
                    "cyclic subspace codes over finite-field extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the full pipeline and write "
                                         "verified output files")
    p.add_argument("--q", type=int, help="ground field size (prime power)")
    p.add_argument("--k", type=int, help="subspace dimension")
    p.add_argument("--s", type=int, help="Frobenius exponent, gcd(s,k)=1")
    p.add_argument("--code", help="JSON file with externally supplied orbits")
    p.add_argument("--out", default="ooc_out", help="output file prefix")
    p.add_argument("--format", choices=["bits", "json"], default="bits",
                   help="summary format on stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="brute-force verify an OOC/OOS file")
    p.add_argument("input", help="OOC bits file or OOS JSON file")
    p.add_argument("--lambda", dest="lam", type=int,
                   help="correlation level to check against")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="Johnson bound J(n, w, lambda)")
    p.add_argument("n", type=int)
    p.add_argument("w", type=int)
    p.add_argument("lam", type=int, metavar="lambda")
    p.add_argument("--size", type=int, help="also report size/J")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="parameter table for q,k specs")
    p.add_argument("specs", nargs="+", metavar="q,k",
                   help="one or more q,k pairs, e.g. 3,2 5,2")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("field-info", help="print the canonical field "
                                          "descriptor for F_{q^m}")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_field_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FieldError, SubspaceError, OocError, OSError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory (this {args.command} run needs more "
              f"memory than is available)", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
