"""Optical orthogonal codes: index sets, correlation checks and bounds.

The translation layer maps field subsets to subsets of Z_N through discrete
logs and binary words to their supports.  Correlation maxima are read off
one cyclic difference count per pair of index sets, exactly.  The field-side
conditions are checked through code-level polynomial multiplication, fully
independent of the exp/log tables, so the two verdicts cross-validate each
other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .subspaces import (build_coset_family, check_g_params, code_min_distance,
                        difference_counts)


class OocError(ValueError):
    """Invalid OOC/OOS input."""


class VerificationError(RuntimeError):
    """A constructed code failed its own brute-force verification."""

    def __init__(self, report):
        super().__init__(f"verification failed: {report.witnesses}")
        self.report = report


# ---------------------------------------------------------------------------
# index sets and codewords
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexSet:
    """A subset of Z_n."""

    n: int
    members: frozenset

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise OocError(f"modulus must be a positive integer, "
                           f"got {self.n!r}")
        if any(not isinstance(a, int) or not 0 <= a < self.n
               for a in self.members):
            raise OocError("index set member out of range")

    def sorted(self):
        return sorted(self.members)


@dataclass(frozen=True)
class Codeword:
    """A binary word of length n with cached weight."""

    n: int
    bits: tuple

    @property
    def weight(self):
        return sum(self.bits)


def support(x):
    """theta(x): the set of positions where the bit is 1."""
    return IndexSet(x.n, frozenset(i for i, b in enumerate(x.bits) if b))


def unsupport(X, n):
    """theta^{-1}: the binary word with ones exactly on X."""
    if any(a >= n for a in X.members):
        raise OocError("index set does not fit in length n")
    return Codeword(n, tuple(1 if i in X.members else 0 for i in range(n)))


def s_of_w(fld, W):
    """S(W) = {i : omega^i in W}; zero is silently excluded (W^* convention)."""
    return IndexSet(fld.N, frozenset(x.idx for x in W if not x.is_zero()))


def shift(X, tau):
    """X + tau in Z_n."""
    return IndexSet(X.n, frozenset((a + tau) % X.n for a in X.members))


# ---------------------------------------------------------------------------
# correlation maxima
# ---------------------------------------------------------------------------

def autocorr_max(X):
    """Max of |X ∩ (X + tau)| over 0 < tau < n, with the smallest such tau."""
    if X.n == 1:  # no admissible tau
        return 0, None
    c = difference_counts(X.members, X.members, X.n)[1:]
    best = max(c)
    return best, c.index(best) + 1


def crosscorr_max(X, Y):
    """Max of |X ∩ (Y + tau)| over 0 <= tau < n, with the smallest such tau.

    tau = 0 is included, so equal sets of size w give (w, 0).
    """
    if X.n != Y.n:
        raise OocError("index sets have different moduli")
    c = difference_counts(X.members, Y.members, X.n)
    best = max(c)
    return best, c.index(best)


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

    All members must share the modulus and have equal size; the report
    carries the exact maxima and the first witness of each maximum
    (smallest tau, then smallest word index pair).
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
    max_auto, auto_wit = 0, None
    for i, X in enumerate(sets):
        v, tau = autocorr_max(X)
        if v > max_auto or auto_wit is None:
            max_auto, auto_wit = v, {"kind": "auto", "word": i, "tau": tau,
                                     "value": v}
    max_cross, cross_wit = 0, None
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            v, tau = crosscorr_max(sets[i], sets[j])
            if v > max_cross or cross_wit is None:
                max_cross, cross_wit = v, {"kind": "cross", "words": [i, j],
                                           "tau": tau, "value": v}
    witnesses = [wit for wit in (auto_wit, cross_wit) if wit is not None]
    passed = max(max_auto, max_cross) <= lam
    return VerificationReport(max_auto, max_cross, witnesses, passed)


def check_field_conditions(fld, w_lists, lam):
    """Field-side OOS conditions, checked by polynomial multiplication.

    (1) |W_i ∩ alpha W_i| <= lam for alpha outside {0, 1};
    (2) |W_i ∩ alpha W_j| <= lam for i != j and nonzero alpha.
    Works on coefficient codes with the field's polynomial-route multiply,
    independently of the discrete-log tables.  Returns (ok, witness).
    """
    code_sets = []
    for i, W in enumerate(w_lists):
        codes = set()
        for x in W:
            if x.is_zero():
                raise OocError(f"W_{i} contains zero")
            codes.add(x.code)
        code_sets.append(frozenset(codes))
    if len(set(code_sets)) != len(code_sets):
        raise OocError("the W_i must be pairwise distinct")
    digits, mul, enc = fld._compute_digits, fld._mul_digits, fld._encode
    digit_sets = [[digits(c) for c in codes] for codes in code_sets]
    for a in range(2, fld.order):
        da = digits(a)
        for i, codes in enumerate(code_sets):
            scaled = frozenset(enc(mul(da, d)) for d in digit_sets[i])
            if len(codes & scaled) > lam:
                return False, {"pair": (i, i), "alpha_code": a,
                               "value": len(codes & scaled)}
    for a in range(1, fld.order):
        da = digits(a)
        scaled = [frozenset(enc(mul(da, d)) for d in ds) for ds in digit_sets]
        for i in range(len(code_sets)):
            for j in range(len(code_sets)):
                if i == j:
                    continue
                overlap = len(code_sets[i] & scaled[j])
                if overlap > lam:
                    return False, {"pair": (i, j), "alpha_code": a,
                                   "value": overlap}
    return True, None


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
    n: int
    w: int
    lam: int
    codewords: tuple


def build_ooc(code):
    """Coset family -> index sets -> verified OOC, from a cyclic subspace code.

    Declares n = q^m - 1, w = q^k, lam = q^(k - d/2) and size r*t, runs the
    full brute-force verification, and raises VerificationError on failure.
    """
    if code.min_distance is None:
        code.min_distance = code_min_distance(code)
    d = code.min_distance
    fld, q, k = code.field, code.ground_q, code.dim
    family = build_coset_family(code)
    n = fld.N
    w = q ** k
    lam = q ** (k - d // 2)
    sets = [s_of_w(fld, coset) for coset in family.cosets]
    r = len(code.representatives)
    size = r * family.t
    if len(sets) != size:
        raise OocError(f"coset family has {len(sets)} sets, expected {size}")
    report = verify_oos(sets, lam)
    if not report.passed:
        raise VerificationError(report)
    codewords = tuple(unsupport(X, n) for X in sets)
    params = OocParams(n, w, lam, size, johnson_bound(n, w, lam),
                       optimality_ratio(size, n, w, lam))
    return OocCode(n, w, lam, codewords), params, report


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
    with open(path, "w") as f:
        f.write(f"# n={ooc.n} w={ooc.w} lambda={ooc.lam} "
                f"size={len(ooc.codewords)}\n")
        for cw in ooc.codewords:
            f.write("".join(map(str, cw.bits)) + "\n")


def read_ooc_text(path):
    """Parse the bits format; returns (codewords, declared lam or None).

    The header's n= and lambda= entries must be integers, and a declared n
    must be the codeword length.
    """
    header = {}
    words = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, _, val = tok.partition("=")
                    if key in ("n", "lambda"):
                        try:
                            header[key] = int(val)
                        except ValueError:
                            raise OocError(f"bits header entry {tok!r} is "
                                           f"not an integer") from None
                continue
            if set(line) - {"0", "1"}:
                raise OocError(f"invalid codeword line: {line[:40]!r}")
            words.append(Codeword(len(line), tuple(map(int, line))))
    if not words:
        raise OocError("no codewords in file")
    if len({cw.n for cw in words}) != 1:
        raise OocError("codewords have mixed lengths")
    if header.get("n", words[0].n) != words[0].n:
        raise OocError(f"bits header declares n={header['n']} but the "
                       f"codewords have length {words[0].n}")
    return words, header.get("lambda")


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
    return [IndexSet(d["n"], frozenset(s)) for s in sets]


def write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
