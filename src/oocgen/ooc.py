"""Optical orthogonal codes: index sets, correlation checks and bounds.

The translation layer takes each field subset W^* as its log indices, S(W).
A codeword is its support, an IndexSet: its members as a strictly increasing
tuple, since every reader scans them in order and none tests membership; the
binary word is only how the bits file prints it.  Correlation maxima are exact:
kernel._BlockStack, the one counting kernel, gives every count
|X_i ∩ (X_j + tau)|, read through its masks own (i = j) and below (i < j).
The subspace layer is imported only by build_ooc and params_table, so
reading and verifying a file loads neither it nor the field layer.
"""

import json

from .kernel import _BlockStack, _peak


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

def _increasing(t):
    return all(a < b for a, b in zip(t, t[1:]))


class IndexSet:
    """A subset of Z_n; members is the strictly increasing tuple of its
    elements, so equal sets compare and hash equal."""

    __slots__ = ("n", "members")

    def __init__(self, n, members):
        """members is any collection of distinct ints in range(n).  A
        strictly increasing tuple is kept as it is, anything else sorted
        into one; a repeated member is an OocError."""
        if type(n) is not int or n < 1:
            raise OocError(f"modulus must be a positive integer, got {n!r}")
        # the type check comes first, so sorting compares ints only
        if members and set(map(type, members)) != {int}:
            raise OocError("index set member out of range")
        if type(members) is not tuple or not _increasing(members):
            members = tuple(sorted(members))
            if not _increasing(members):
                raise OocError("index set repeats a member")
        if members and (members[0] < 0 or members[-1] >= n):
            raise OocError("index set member out of range")
        self.n = n
        self.members = members

    def __eq__(self, other):
        if type(other) is not IndexSet:
            return NotImplemented
        return self.n == other.n and self.members == other.members

    def __hash__(self):
        return hash((self.n, self.members))

    def __repr__(self):
        return f"IndexSet(n={self.n}, members={self.members!r})"

    def sorted(self):
        return list(self.members)


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
    strictly increasing tuple, as a coset family holds them; zero (index
    -1) is out of range, an OocError."""
    return IndexSet(fld.N, W)


# ---------------------------------------------------------------------------
# correlation maxima
# ---------------------------------------------------------------------------

class VerificationReport:
    """Worst-case correlations of a family, with witnesses."""

    __slots__ = ("max_auto", "max_cross", "witnesses", "passed")

    def __init__(self, max_auto, max_cross, witnesses, passed):
        self.max_auto = max_auto
        self.max_cross = max_cross
        self.witnesses = witnesses
        self.passed = passed

    def __eq__(self, other):
        if type(other) is not VerificationReport:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return f"VerificationReport({self.to_dict()!r})"

    def to_dict(self):
        return {
            "max_auto": self.max_auto,
            "max_cross": self.max_cross,
            "witnesses": self.witnesses,
            "pass": self.passed,
        }


def verify_oos(sets, lam):
    """Brute-force verification of the OOS conditions at level lam, over
    every word and every pair.

    All members must share the modulus and have equal size.  The report
    carries the exact maxima and the first witness of each: the lowest word,
    or the lowest word pair (i, j) in lexicographic order, that reaches the
    maximum, then its smallest tau.  One _BlockStack counts and pushes each
    word j in turn: _peak over its own mask less tau = 0 and over its below
    mask gives its largest auto- and cross-correlation, and first (i, tau).
    """
    if lam < 0:
        raise OocError(f"lambda must be >= 0, got lambda={lam}")
    if not sets:
        raise OocError("empty family")
    n, w = sets[0].n, len(sets[0].members)
    for i, X in enumerate(sets):
        if X.n != n:
            raise OocError(f"set {i} has modulus {X.n}, expected {n}")
        if len(X.members) != w:
            raise OocError(f"sets 0 and {i} have different weights "
                           f"({w} vs {len(X.members)})")
    auto = cross = None  # the witnesses so far
    try:
        stack = _BlockStack(n)
        for j, X in enumerate(sets):
            planes, own, below = stack.count(X.members)
            stack.push()
            v, bits = _peak(planes, own & own - 1)  # own less tau = 0
            if auto is None or v > auto["value"]:
                tau = stack.first(bits)[1] if bits else None
                auto = {"kind": "auto", "word": j, "tau": tau, "value": v}
            if below:
                v, bits = _peak(planes, below)
                i, tau = stack.first(bits)
                if cross is None or (v, -i) > (cross["value"],
                                               -cross["words"][0]):
                    cross = {"kind": "cross", "words": [i, j], "tau": tau,
                             "value": v}
    except OverflowError:
        raise OocError(f"modulus n = {n} is too large to verify") from None
    max_auto, max_cross = auto["value"], cross["value"] if cross else 0
    witnesses = [auto, cross] if cross else [auto]
    passed = max(max_auto, max_cross) <= lam
    return VerificationReport(max_auto, max_cross, witnesses, passed)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# J's running value never decreases (each factor (n-i)/(w-i) >= 1), so it is
# refused once it reaches 2^_JOHNSON_BITS, 3914 digits: every bound returned
# prints within Python's 4300-digit limit on int-to-str conversion.
_JOHNSON_BITS = 13000
# J takes lambda steps.  With n >= 2w each factor is >= 2, so the budget ends
# them within _JOHNSON_BITS; with n < 2w, lambda > _JOHNSON_STEPS is refused.
_JOHNSON_STEPS = 1 << 20


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
    if n < 2 * w and lam > _JOHNSON_STEPS:
        raise OocError(f"J({n},{w},{lam}) takes lambda = {lam} steps, above "
                       f"the limit of 2^20 = {_JOHNSON_STEPS} when n < 2w")
    t = (n - lam) // (w - lam)
    for i in range(lam - 1, 0, -1):
        if t.bit_length() > _JOHNSON_BITS:
            break
        t = (n - i) * t // (w - i)
    if t.bit_length() > _JOHNSON_BITS:
        raise OocError(f"J({n},{w},{lam}) is too large: it reaches "
                       f"2^{_JOHNSON_BITS}, the budget of 3914 digits")
    return t // w


def optimality_ratio(size, n, w, lam):
    """size / J(n, w, lam) as an exact rational."""
    if size < 0:
        raise OocError(f"size must be >= 0, got size={size}")
    j = johnson_bound(n, w, lam)
    if j == 0:
        raise OocError("Johnson bound is zero; ratio undefined")
    from fractions import Fraction  # a few ms at import, so only here
    return Fraction(size, j)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

class OocParams:
    __slots__ = ("n", "w", "lam", "size", "johnson", "ratio")

    def __init__(self, n, w, lam, size, johnson, ratio):
        self.n, self.w, self.lam = n, w, lam
        self.size, self.johnson, self.ratio = size, johnson, ratio

    def to_dict(self):
        return {"n": self.n, "w": self.w, "lambda": self.lam,
                "size": self.size, "johnson": self.johnson,
                "ratio": [self.ratio.numerator, self.ratio.denominator]}


class OocCode:
    """A verified OOC; each codeword is an IndexSet, its support."""

    __slots__ = ("n", "w", "lam", "codewords")

    def __init__(self, n, w, lam, codewords):
        self.n, self.w, self.lam, self.codewords = n, w, lam, codewords


def build_ooc(code):
    """Coset family -> index sets -> verified OOC, from a cyclic subspace code.

    Declares n = q^m - 1, w = q^k, lam = q^(k - d/2) and size r*t, and
    raises VerificationError unless the word sweep passes.  The report of
    words 0 and 1 stands when both maxima are lam and subspaces._orbit_proof
    then holds: it bounds every count by lam and gives every word q^k
    members, and (0, 1) is the first pair.  Otherwise the full sweep runs.
    """
    from .subspaces import _orbit_proof, build_coset_family
    d = code.min_distance
    fld, q, k = code.field, code.ground_q, code.dim
    family = build_coset_family(code)
    n, w = fld.N, q ** k
    lam = q ** (k - d // 2)
    sets = [s_of_w(fld, coset) for coset in family.cosets]
    size = len(sets)
    report = verify_oos(sets[:2], lam)
    if not (report.max_auto == report.max_cross == lam
            and _orbit_proof(code, family.cosets)):
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
    from .subspaces import check_g_params
    rows = []
    for q, k in specs:
        check_g_params(q, k)
        n, w, lam = q ** (2 * k) - 1, q ** k, q
        size = (q - 1) // 2 * (q ** k - 1) // (q - 1)
        rows.append({"q": q, "k": k, "n": n, "w": w, "lambda": lam,
                     "size": size, "johnson": johnson_bound(n, w, lam),
                     "ratio": optimality_ratio(size, n, w, lam)})
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
            members, i = [], line.find("1")
            while i >= 0:
                members.append(i)
                i = line.find("1", i + 1)
            sets.append(IndexSet(len(line), tuple(members)))
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
    words = []
    for i, s in enumerate(sets):
        try:
            words.append(IndexSet(d["n"], s))
        except OocError as exc:
            if "repeats" in str(exc):  # IndexSet cannot name the set
                exc = f"set {i} repeats a member"
            raise OocError(f"OOS file: {exc}") from None
    return words


def write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
