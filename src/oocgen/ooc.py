"""Optical orthogonal codes: index sets, correlation checks and bounds.

The translation layer takes each field subset W^* as its log indices, S(W).
A codeword is its support, an IndexSet; the binary word is only how
the bits file prints it.  Correlation maxima are exact: they come from the
package's one counting kernel, subspaces._column_counts, which stacks the
words' doubled indicators in one big integer and adds its shifts into
bit-sliced counters.  These then hold every cyclic count |X_i ∩ (X_j + tau)|
with i <= j for one word j at a time, in sparse and dense families alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .subspaces import (_column_counts, _peak, build_coset_family,
                        check_g_params)


class OocError(ValueError):
    """Invalid OOC/OOS input."""


class VerificationError(RuntimeError):
    """A constructed code failed its own brute-force verification."""

    def __init__(self, report):
        super().__init__(f"verification failed: {report.witnesses}")
        self.report = report


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexSet:
    """A subset of Z_n."""

    n: int
    members: frozenset

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise OocError(f"modulus must be a positive integer, "
                           f"got {self.n!r}")
        if any(type(a) is not int or not 0 <= a < self.n
               for a in self.members):
            raise OocError("index set member out of range")

    def sorted(self):
        return sorted(self.members)


def support(X):
    """A codeword is its support, so this returns X.  It goes when the
    benchmark stops importing it (ROADMAP item 1)."""
    return X


def unsupport(X, n):
    """X as a codeword of length n (OocError if X does not fit).  It goes
    when the benchmark stops importing it (ROADMAP item 1)."""
    return IndexSet(n, X.members)


def s_of_w(fld, W):
    """S(W) = {i : omega^i in W} from W^*'s log indices, not copied if a
    frozenset; zero (index -1) is out of range, an OocError."""
    return IndexSet(fld.N, frozenset(W))


# ---------------------------------------------------------------------------
# correlation maxima
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Worst-case correlations of a family, with witnesses."""

    max_auto: int
    max_cross: int
    witnesses: list
    passed: bool

    def to_dict(self):
        return {
            "max_auto": self.max_auto,
            "max_cross": self.max_cross,
            "witnesses": self.witnesses,
            "pass": self.passed,
        }


def verify_oos(sets, lam):
    """Brute-force verification of the OOS conditions at level lam.

    All members must share the modulus and have equal size.  The report
    carries the exact maxima and the first witness of each: the lowest word,
    or the lowest word pair (i, j) in lexicographic order, that reaches the
    maximum, then its smallest tau.  One pass of _column_counts gives every
    count; for column j, one scan over the blocks below j gives its largest
    cross-correlation and, from the lowest bit holding it, the lowest i and
    then the smallest tau.
    """
    if lam < 0:
        raise OocError(f"lambda must be >= 0, got lambda={lam}")
    if not sets:
        raise OocError("empty family")
    n = sets[0].n
    w = len(sets[0].members)
    for i, X in enumerate(sets):
        if X.n != n:
            raise OocError(f"set {i} has modulus {X.n}, expected {n}")
        if len(X.members) != w:
            raise OocError(f"sets 0 and {i} have different weights "
                           f"({w} vs {len(X.members)})")
    low, stride = (1 << n) - 1, 2 * n
    below = 0  # bits [0, n) of every block before the current one
    max_auto, auto_wit = 0, None
    max_cross, cross_wit = 0, None
    for j, planes in enumerate(_column_counts([X.members for X in sets], n)):
        offset = stride * j
        v, tau = _peak([P >> offset for P in planes], low - 1)
        if v > max_auto or auto_wit is None:
            max_auto, auto_wit = v, {"kind": "auto", "word": j, "tau": tau,
                                     "value": v}
        if j:
            v, pos = _peak(planes, below)
            i, tau = divmod(pos, stride)
            if (cross_wit is None or v > max_cross
                    or v == max_cross and i < cross_wit["words"][0]):
                max_cross, cross_wit = v, {"kind": "cross", "words": [i, j],
                                           "tau": tau, "value": v}
        below |= low << offset
    witnesses = [wit for wit in (auto_wit, cross_wit) if wit is not None]
    passed = max(max_auto, max_cross) <= lam
    return VerificationReport(max_auto, max_cross, witnesses, passed)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def johnson_bound(n, w, lam):
    """J(n, w, lam): the nested-floor Johnson bound, exact integers."""
    if w < 1:
        raise OocError(f"w must be >= 1, got w={w}")
    if lam < 0:
        raise OocError(f"lambda must be >= 0, got lambda={lam}")
    if lam >= w:
        raise OocError(f"lambda must be < w, got lambda={lam}, w={w}")
    if w > n:
        raise OocError(f"w must be <= n, got w={w}, n={n}")
    t = (n - lam) // (w - lam)
    for i in range(lam - 1, 0, -1):
        t = (n - i) * t // (w - i)
    return t // w


def optimality_ratio(size, n, w, lam):
    """size / J(n, w, lam) as an exact rational."""
    if size < 0:
        raise OocError(f"size must be >= 0, got size={size}")
    j = johnson_bound(n, w, lam)
    if j == 0:
        raise OocError("Johnson bound is zero; ratio undefined")
    return Fraction(size, j)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

@dataclass
class OocParams:
    n: int
    w: int
    lam: int
    size: int
    johnson: int
    ratio: Fraction

    def to_dict(self):
        return {"n": self.n, "w": self.w, "lambda": self.lam,
                "size": self.size, "johnson": self.johnson,
                "ratio": [self.ratio.numerator, self.ratio.denominator]}


@dataclass
class OocCode:
    """A verified OOC; each codeword is an IndexSet, its support."""

    n: int
    w: int
    lam: int
    codewords: tuple


def build_ooc(code):
    """Coset family -> index sets -> verified OOC, from a cyclic subspace code.

    Declares n = q^m - 1, w = q^k, lam = q^(k - d/2) and size r*t, runs the
    full brute-force verification, and raises VerificationError on failure.
    """
    d = code.min_distance
    fld, q, k = code.field, code.ground_q, code.dim
    family = build_coset_family(code)
    n = fld.N
    w = q ** k
    lam = q ** (k - d // 2)
    sets = [s_of_w(fld, coset) for coset in family.cosets]
    size = len(sets)
    report = verify_oos(sets, lam)
    if not report.passed:
        raise VerificationError(report)
    params = OocParams(n, w, lam, size, johnson_bound(n, w, lam),
                       optimality_ratio(size, n, w, lam))
    return OocCode(n, w, lam, tuple(sets)), params, report


def params_table(specs):
    """Parameter rows (n, w, lam, size, J, ratio) for G-construction specs.

    Each spec is a (q, k) pair; size follows the floor((q-1)/2)(q^k-1)/(q-1)
    count and the weight column is q^k.  Specs outside construct_g's
    domain are rejected.
    """
    rows = []
    for q, k in specs:
        check_g_params(q, k)
        n = q ** (2 * k) - 1
        w = q ** k
        lam = q
        r = (q - 1) // 2
        size = r * (q ** k - 1) // (q - 1)
        j = johnson_bound(n, w, lam)
        rows.append({"q": q, "k": k, "n": n, "w": w, "lambda": lam,
                     "size": size, "johnson": j,
                     "ratio": Fraction(size, j)})
    return rows


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_ooc_text(ooc, path):
    """Write the bits format: one line per codeword, a 1 at each member."""
    with open(path, "w") as f:
        f.write(f"# n={ooc.n} w={ooc.w} lambda={ooc.lam} "
                f"size={len(ooc.codewords)}\n")
        for X in ooc.codewords:
            line = bytearray(b"0" * X.n)
            for a in X.members:
                line[a] = ord("1")
            f.write(line.decode() + "\n")


def read_ooc_text(path):
    """Parse the bits format; returns (index sets, declared lam or None).

    The header's n=, w=, size= and lambda= entries must be integers, and a
    declared n, w or size must be the codewords' length, weight or number.
    """
    header = {}
    sets = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, _, val = tok.partition("=")
                    if key in ("n", "w", "size", "lambda"):
                        try:
                            header[key] = int(val)
                        except ValueError:
                            raise OocError(f"bits header entry {tok!r} is "
                                           f"not an integer") from None
                continue
            if set(line) - {"0", "1"}:
                raise OocError(f"invalid codeword line: {line[:40]!r}")
            sets.append(IndexSet(len(line), frozenset(
                i for i, b in enumerate(line) if b == "1")))
    if not sets:
        raise OocError("no codewords in file")
    if len({X.n for X in sets}) != 1:
        raise OocError("codewords have mixed lengths")
    for key, actual, what in (("n", sets[0].n, "codeword length"),
                              ("w", len(sets[0].members), "codeword weight"),
                              ("size", len(sets), "number of codewords")):
        if header.get(key, actual) != actual:
            raise OocError(f"bits header declares {key}={header[key]} but "
                           f"the {what} is {actual}")
    return sets, header.get("lambda")


def oos_to_dict(sets):
    if len({X.n for X in sets}) != 1:
        raise OocError("index sets have mixed moduli")
    return {"n": sets[0].n, "sets": [X.sorted() for X in sets]}


def oos_from_dict(d):
    for key in ("n", "sets"):
        if key not in d:
            raise OocError(f"OOS file has no {key!r} entry")
    sets = d["sets"]
    if not isinstance(sets, list) or not all(
            isinstance(s, list) and all(type(a) is int for a in s)
            for s in sets):
        raise OocError("OOS file: 'sets' must be a list of integer lists")
    for i, s in enumerate(sets):
        if len(set(s)) != len(s):
            raise OocError(f"OOS file: set {i} repeats a member")
    try:
        return [IndexSet(d["n"], frozenset(s)) for s in sets]
    except OocError as exc:
        raise OocError(f"OOS file: {exc}") from None


def write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
