"""Shared fixtures, independent oracles and test helpers.

The paper's Sidon, orbit and field-side facts are claims for the tests to
check, so their checkers live here rather than in the library: is_sidon,
is_multi_sidon and orbit_size count on the pair loop,
check_field_conditions multiplies on the polynomial route, and
norm_conditions checks the premises of G_{2k,s} in index arithmetic.
coset_word_ok and orbit_words_cover_once are the orbit route's checks (a)
and (b) on a coset family, by field addition, apart from the covering scan.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from oocgen import (CosetFamily, CyclicSubspaceCode, FieldError, IndexSet,
                    OocError, Subspace, SubspaceError, VerificationReport,
                    build_ooc, construct_g, field_create)
from oocgen.field import find_irreducible_factor
from oocgen.kernel import _BlockStack


def bits(X):
    """The binary word of an index set: the 0/1 tuple of length X.n."""
    return tuple(1 if i in X.members else 0 for i in range(X.n))


def bit_corr(xbits, ybits, tau):
    """Definition-level correlation sum: sum_t x_t * y_{t+tau} (cyclic)."""
    n = len(xbits)
    return sum(xbits[t] * ybits[(t + tau) % n] for t in range(n))


def pair_difference_counts(X, Y, n):
    """The pair loop: c[tau] = #{(x, y) in X x Y : x - y = tau (mod n)}."""
    c = [0] * n
    for x in X:
        for y in Y:
            c[(x - y) % n] += 1
    return c


def strictly_increasing(word):
    """Whether a word is a strictly increasing tuple, the form IndexSet
    members and coset family words take."""
    return type(word) is tuple and all(a < b for a, b in zip(word, word[1:]))


def shift(X, tau):
    """X + tau in Z_n."""
    return IndexSet(X.n, frozenset((a + tau) % X.n for a in X.members))


def pair_verify_oos(sets, lam):
    """Oracle for verify_oos: one pair-loop difference count per word and
    per word pair, scanned in word order, then tau order."""
    n = sets[0].n
    max_auto, auto_wit = 0, None
    for i, X in enumerate(sets):
        c = pair_difference_counts(X.members, X.members, n)[1:]
        v = max(c, default=0)
        tau = c.index(v) + 1 if c else None
        if v > max_auto or auto_wit is None:
            max_auto, auto_wit = v, {"kind": "auto", "word": i, "tau": tau,
                                     "value": v}
    max_cross, cross_wit = 0, None
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            c = pair_difference_counts(sets[i].members, sets[j].members, n)
            v = max(c)
            tau = c.index(v)
            if v > max_cross or cross_wit is None:
                max_cross, cross_wit = v, {"kind": "cross", "words": [i, j],
                                           "tau": tau, "value": v}
    witnesses = [wit for wit in (auto_wit, cross_wit) if wit is not None]
    return VerificationReport(max_auto, max_cross, witnesses,
                              max(max_auto, max_cross) <= lam)


def bit_level_ooc_ok(words, lam):
    """Brute-force OOC check directly on bit vectors."""
    for x in words:
        n = len(x)
        for tau in range(1, n):
            if bit_corr(x, x, tau) > lam:
                return False
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            for tau in range(len(words[i])):
                if bit_corr(words[i], words[j], tau) > lam:
                    return False
    return True


# ---------------------------------------------------------------------------
# field elements: an element is its log index, -1 for zero
# ---------------------------------------------------------------------------

def code_of(f, x):
    """The coefficient code of the element with log index x, and 0 for
    zero: read from the polynomial-stepping oracle's exp table."""
    return 0 if x < 0 else poly_exp_table(f)[0][x]


def log_of(f, c):
    """The log index of the element with coefficient code c (-1 for zero),
    from the oracle's log table."""
    return poly_exp_table(f)[1][c]


def log_minus_one(f):
    """log(-1): -1 = omega^(N/2) for odd p, and -1 = 1 in characteristic 2."""
    return 0 if f.p == 2 else f.N // 2


def neg(f, x):
    """-x: negation adds log(-1) to the index."""
    return x if x < 0 else (x + log_minus_one(f)) % f.N


def sub(f, x, y):
    """x - y."""
    return f.add(x, neg(f, y))


def inverse(f, x):
    """x^-1 for nonzero x: the negated log index."""
    if x < 0:
        raise FieldError("zero has no inverse")
    return -x % f.N


def gaussian_binomial(m, k, q):
    """Number of k-dimensional subspaces of F_q^m, as an exact integer."""
    if k < 0 or k > m:
        return 0
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(q ** (m - i) - 1, q ** (k - i) - 1)
    if num.denominator != 1:
        raise FieldError(f"Gaussian binomial [{m} {k}]_{q} is not an integer")
    return num.numerator


def check_field_conditions(fld, w_lists, lam):
    """Field-side OOS conditions, checked by polynomial multiplication.

    (1) |W_i ∩ alpha W_i| <= lam for alpha outside {0, 1};
    (2) |W_i ∩ alpha W_j| <= lam for i != j and nonzero alpha.
    The W_i are given by log indices and read as codes by code_of, from the
    polynomial-stepping oracle; from there it works with the field's
    polynomial-route multiply, independently of the library's Zech table,
    so its verdict and verify_oos's on the S(W_i) cross-validate each
    other.  Returns (ok, witness).
    """
    code_sets = []
    for i, W in enumerate(w_lists):
        if any(x < 0 for x in W):
            raise OocError(f"W_{i} contains zero")
        code_sets.append(frozenset(code_of(fld, x) for x in W))
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
# subspaces: span, scaling, Sidon, orbits
# ---------------------------------------------------------------------------

def combinations_set(f, q, vectors):
    """The log indices of every F_q-combination of the given log indices,
    by field multiplication and addition: q^len(vectors) combinations.
    More vectors than the field's dimension over F_q are dependent, and
    are refused rather than enumerated."""
    if q ** len(vectors) > f.order:
        raise SubspaceError(f"{len(vectors)} vectors over F_{q} in "
                            f"F_{f.order} are dependent")
    scalars = [-1, *range(0, f.N, f.subfield_stride(q))]
    out = set()
    for coeffs in itertools.product(scalars, repeat=len(vectors)):
        x = -1
        for c, v in zip(coeffs, vectors):
            x = f.add(x, f.mul(c, v))
        out.add(x)
    return frozenset(out)


def span_set(U):
    """Oracle for U's span, apart from U.classes: the log indices of every
    F_q-combination of U.basis, zero (-1) included."""
    return combinations_set(U.field, U.ground_q, U.basis)


def scaled(U, a):
    """The subspace omega^a U: basis omega^a b."""
    f = U.field
    return Subspace(f, U.ground_q, [f.mul(b, a) for b in U.basis])


def _nonzero_span(U):
    return [i for i in span_set(U) if i >= 0]


def _self_counts(U):
    """c[a] = |U ∩ omega^a U| - 1 for each a, by the pair loop."""
    S = _nonzero_span(U)
    return pair_difference_counts(S, S, U.field.N)


def is_sidon(U):
    """Exhaustive Sidon check: dim(U ∩ alpha U) <= 1 for alpha outside F_q.

    Returns (True, None) or (False, a) with the smallest witness log index
    a.  F_q^* is the a divisible by N / (q - 1), and dim(U ∩ omega^a U) >= 2
    exactly when 1 + c[a] > q.
    """
    f, q = U.field, U.ground_q
    stride, c = f.subfield_stride(q), _self_counts(U)
    a = next((a for a in range(f.N) if a % stride and c[a] >= q), None)
    return (True, None) if a is None else (False, a)


def is_multi_sidon(spaces):
    """Multi-Sidon check on a family of equal-dimension subspaces.

    dim(U_i ∩ alpha U_j) <= 1 must hold for all nonzero alpha when i != j,
    and for alpha outside F_q when i = j.  Returns (True, None) or
    (False, (i, j, a)), the lowest i, then j, then log index a of alpha.
    """
    if len({span_set(U) for U in spaces}) != len(spaces):
        raise SubspaceError("duplicate subspaces in multi-Sidon input")
    if len({U.dim for U in spaces}) != 1:
        raise SubspaceError("multi-Sidon input must have equal dimensions")
    f, q = spaces[0].field, spaces[0].ground_q
    for i, U in enumerate(spaces):
        ok, alpha = is_sidon(U)
        if not ok:
            return False, (i, i, alpha)
    S = [_nonzero_span(U) for U in spaces]
    for i, j in itertools.combinations(range(len(spaces)), 2):
        c = pair_difference_counts(S[i], S[j], f.N)
        a = next((a for a in range(f.N) if c[a] >= q), None)
        if a is not None:
            return False, (i, j, a)
    return True, None


def orbit_size(U):
    """N / |stabiliser|, the stabiliser being the a with omega^a U = U."""
    c = _self_counts(U)
    return U.field.N // sum(1 for v in c if v >= U.ground_q ** U.dim - 1)


def code_size(code):
    """Number of codewords: the orbit sizes of the representatives."""
    return sum(orbit_size(U) for U in code.representatives)


def first_irreducible(p, e):
    """Oracle for canonical_modulus: the first monic irreducible of degree e
    in the full low-degree-first scan, x-divisible tails included."""
    for tail in itertools.product(range(p), repeat=e):
        f = list(tail) + [1]
        if find_irreducible_factor(f, p) is None:
            return f
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")


@functools.cache
def poly_exp_table(fld):
    """Oracle for the field's tables, cached per field: the exp table
    (codes of omega^i), the log table (log[code], -1 at code 0) and the
    zech table, as tuples.  It steps the digit vector of omega^i by one
    polynomial product mod the modulus per element, and adds 1 to the
    constant digit for zech."""
    n = max(fld.N, 1)
    exp, log = [0] * n, [-1] * fld.order
    d_omega = fld._compute_digits(fld.omega_code)
    d = fld._compute_digits(1)
    for i in range(n):
        c = fld._encode(d)
        exp[i] = c
        log[c] = i
        d = fld._mul_digits(d, d_omega)
    zech = []
    for c in exp:
        d = list(fld._compute_digits(c))
        d[0] = (d[0] + 1) % fld.p
        zech.append(log[fld._encode(d)])
    return tuple(exp), tuple(log), tuple(zech)


def _matinv_mod(rows, p):
    """Inverse of a square matrix over F_p (Gauss-Jordan)."""
    n = len(rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@functools.cache
def _coord_map(f, order):
    """Prime-field coordinate matrix and generator powers (log indices) of
    the subfield of that order; its generator is the index stride g."""
    g = f.subfield_stride(order) % f.N
    d = round(math.log(order, f.p))
    cols = [f._compute_digits(code_of(f, (j + g * l) % f.N))
            for j in range(f.e // d) for l in range(d)]
    rows = [[cols[c][r] for c in range(f.e)] for r in range(f.e)]
    return _matinv_mod(rows, f.p), [g * l % f.N for l in range(d)]


def subfield_coords(f, order, x):
    """Coordinates (log indices) of x over the subfield of that order, in
    the power basis {1, omega, ..., omega^(m-1)} of the big field (length
    m = e/d)."""
    coord_rows, gen_powers = _coord_map(f, order)
    d = len(gen_powers)
    vec = f._compute_digits(code_of(f, x))
    b = [sum(r * v for r, v in zip(row, vec)) % f.p for row in coord_rows]
    out = []
    for j in range(f.e // d):
        c = -1
        for l in range(d):
            if b[j * d + l]:
                c = f.add(c, f.mul(log_of(f, b[j * d + l]),
                                   gen_powers[l]))
        out.append(c)
    return tuple(out)


def _rank(f, vectors):
    """Rank of a list of coordinate vectors (entries are log indices)."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows))
                      if rows[r][col] >= 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = inverse(f, rows[rank][col])
        for r in range(rank + 1, len(rows)):
            if rows[r][col] >= 0:
                c = f.mul(rows[r][col], inv)
                rows[r] = [sub(f, a, f.mul(c, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_dim_intersection(U, V):
    """Oracle for dim(U ∩ V): rank of the stacked bases' F_q-coordinates."""
    f = U.field
    vectors = [subfield_coords(f, U.ground_q, b) for b in U.basis + V.basis]
    return U.dim + V.dim - _rank(f, vectors)


def greedy_coset_representatives(U):
    """Oracle for coset_representatives: the first-fit scan that tests each
    omega^a against U and every F_q-multiple of the representatives so far,
    by field subtraction; returns the representatives' log indices."""
    f, q = U.field, U.ground_q
    units = range(0, f.N, f.subfield_stride(q))
    t = (f.order // q ** U.dim - 1) // (q - 1)
    S, reps = span_set(U), []
    for a in range(f.N):
        if a in S:
            continue
        if any(sub(f, a, f.mul(lam, r)) in S
               for r in reps for lam in units):
            continue
        reps.append(a)
        if len(reps) == t:
            break
    return reps


def field_coset_family(code):
    """Oracle for build_coset_family: for each U_i and each of its greedy
    representatives d, the coset {u + d : u in U_i} by field addition, as
    the frozenset of its members' log indices."""
    cosets = []
    for U in code.representatives:
        S = span_set(U)
        for a in greedy_coset_representatives(U):
            cosets.append(frozenset(U.field.add(u, a) for u in S))
    return CosetFamily(tuple(cosets))


def coset_word_ok(U, word, minus_one):
    """Check (a) of the orbit route: word is the coset x0 + U of its first
    member x0.  It has q^k members in Z_N, none of them zero, and
    {log(y - x0) : y != x0} is exactly U's nonzero log set, each difference
    taken as y + omega^minus_one x0, minus_one being log(-1)."""
    f = U.field
    x0 = word[0]
    diffs = {f.add(y, (x0 + minus_one) % f.N) for y in word[1:]}
    return (len(word) == U.ground_q ** U.dim
            and all(0 <= y < f.N for y in word)
            and diffs == span_set(U) - {-1})


def orbit_words_cover_once(U, words):
    """Check (b) of the orbit route: U^* and the F_q^*-shifts of the orbit's
    words cover Z_N exactly once."""
    f = U.field
    units = range(0, f.N, f.subfield_stride(U.ground_q))
    marked = _nonzero_span(U)
    marked += [(x + s) % f.N for word in words for x in word for s in units]
    return sorted(marked) == list(range(f.N))


def w_and_xi(f, q, k):
    """construct_g's choices in F_{q^{2k}}, as log indices: the primitive w
    of F_{q^k} and the first root xi of the first x^2 + b x + w with no
    root in F_{q^k}, each root found as t^2 + b t + w = 0."""
    w = f.subfield_stride(q ** k)
    add, mul = f.add, f.mul
    roots = lambda b, ts: [t for t in ts
                           if add(add(mul(t, t), mul(b, t)), w) < 0]
    sub = [-1, *range(0, f.N, w)]
    b = next(c for c in sub if not roots(c, sub))
    return w, roots(b, range(f.N))[0]


def norm_conditions(f, q, k, mus, xi):
    """Oracle for the paper's pairwise norm conditions on the multipliers
    mus (nonzero, in F_{q^k}) and xi (outside F_{q^k}) in f = F_{q^{2k}}:
    N(mu_i) != N(mu_j) and N(mu_i mu_j xi^(q^k+1)) != 1, the norm to F_q
    being the log index times (q^k - 1)/(q - 1).  Returns (ok, report),
    the report listing every violated pair."""
    qk, stride = q ** k, f.subfield_stride(q ** k)
    assert f.order == qk * qk and xi % stride
    assert all(mu >= 0 and mu % stride == 0 for mu in mus)
    norm = lambda x: x * ((qk - 1) // (q - 1)) % f.N
    report = []
    for i, j in itertools.combinations(range(len(mus)), 2):
        if norm(mus[i]) == norm(mus[j]):
            report.append({"pair": (i, j), "condition": "equal norms"})
        if norm(mus[i] + mus[j] + xi * (qk + 1)) == 0:
            report.append({"pair": (i, j),
                           "condition": "norm(mu_i mu_j xi^(q^k+1)) = 1"})
    return not report, report


def canonical_sidon_f64():
    """First 3-dim Sidon space of F_64 over F_2, in canonical basis order."""
    f = field_create(2, 6)
    seen = set()
    for trip in itertools.combinations(range(f.N), 3):
        U = Subspace(f, 2, trip)
        S = span_set(U)
        if U.dim != 3 or S in seen:
            continue
        seen.add(S)
        ok, _ = is_sidon(U)
        if ok:
            return U
    raise AssertionError("no Sidon space found in F_64")


def stack_calls(monkeypatch, *modules):
    """Make every block stack in modules record its number of counts in
    the returned list, one entry per stack made."""
    calls = []

    class Counting(_BlockStack):
        def __init__(self, n):
            super().__init__(n)
            calls.append(0)

        def count(self, X):
            calls[-1] += 1
            return super().count(X)

    for module in modules:
        monkeypatch.setattr(module, "_BlockStack", Counting)
    return calls


@pytest.fixture(scope="session")
def pipeline_q3():
    code = construct_g(3, 2, 1)
    ooc, params, report = build_ooc(code)
    return code, ooc, params, report


@pytest.fixture(scope="session")
def pipeline_q5():
    code = construct_g(5, 2, 1)
    ooc, params, report = build_ooc(code)
    return code, ooc, params, report


@pytest.fixture(scope="session")
def pipeline_q2_sidon():
    U = canonical_sidon_f64()
    code = CyclicSubspaceCode(U.field, 2, (U,))
    ooc, params, report = build_ooc(code)
    return code, ooc, params, report
