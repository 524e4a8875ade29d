"""Shared fixtures, independent oracles and test helpers.

The paper's Sidon, orbit and field-side facts are claims for the tests to
check, so their checkers live here rather than in the library: is_sidon,
is_multi_sidon and orbit_size count on the pair loop, and
check_field_conditions multiplies on the polynomial route.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from oocgen import (CosetFamily, CyclicSubspaceCode, FieldElement, FieldError,
                    IndexSet, OocError, Subspace, SubspaceError,
                    VerificationReport, build_ooc, construct_g, field_create,
                    span)
from oocgen.field import find_irreducible_factor


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
# field elements
# ---------------------------------------------------------------------------

def neg(x):
    """-x.  For odd p, -1 = omega^(N/2), so negation adds N/2 to the index;
    in characteristic 2, -x = x."""
    f = x.field
    if x.idx < 0 or f.p == 2:
        return x
    return FieldElement(f, (x.idx + f.N // 2) % f.N)


def sub(x, y):
    """x - y."""
    return x + neg(y)


def inverse(x):
    """x^-1 for nonzero x: the negated log index."""
    if x.idx < 0:
        raise FieldError("zero has no inverse")
    return FieldElement(x.field, -x.idx % x.field.N)


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
    Works on coefficient codes with the field's polynomial-route multiply,
    independently of the exp/log and Zech tables, so its verdict and
    verify_oos's on the S(W_i) cross-validate each other.  Returns
    (ok, witness).
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
# subspaces: scaling, Sidon, orbits
# ---------------------------------------------------------------------------

def scaled(U, a):
    """The subspace omega^a U: basis omega^a b, span shifted by a."""
    f = U.field
    alpha = f.from_idx(a)
    return Subspace(f, U.ground_q, [alpha * b for b in U.basis],
                    frozenset(-1 if i < 0 else (i + a) % f.N
                              for i in U.span_idx))


def _self_counts(U):
    """c[a] = |U ∩ omega^a U| - 1 for each a, by the pair loop."""
    S = [i for i in U.span_idx if i >= 0]
    return pair_difference_counts(S, S, U.field.N)


def is_sidon(U):
    """Exhaustive Sidon check: dim(U ∩ alpha U) <= 1 for alpha outside F_q.

    Returns (True, None) or (False, witness_alpha) with the smallest witness
    by log index.  F_q^* is the a divisible by N / (q - 1), and
    dim(U ∩ omega^a U) >= 2 exactly when 1 + c[a] > q.
    """
    f, q = U.field, U.ground_q
    stride, c = f.subfield(q).stride, _self_counts(U)
    a = next((a for a in range(f.N) if a % stride and c[a] >= q), None)
    return (True, None) if a is None else (False, f.from_idx(a))


def is_multi_sidon(spaces):
    """Multi-Sidon check on a family of equal-dimension subspaces.

    dim(U_i ∩ alpha U_j) <= 1 must hold for all nonzero alpha when i != j,
    and for alpha outside F_q when i = j.  Returns (True, None) or
    (False, (i, j, alpha)), the lowest i, then j, then log index of alpha.
    """
    if len({U.span_idx for U in spaces}) != len(spaces):
        raise SubspaceError("duplicate subspaces in multi-Sidon input")
    if len({U.dim for U in spaces}) != 1:
        raise SubspaceError("multi-Sidon input must have equal dimensions")
    f, q = spaces[0].field, spaces[0].ground_q
    for i, U in enumerate(spaces):
        ok, alpha = is_sidon(U)
        if not ok:
            return False, (i, i, alpha)
    S = [[x for x in U.span_idx if x >= 0] for U in spaces]
    for i, j in itertools.combinations(range(len(spaces)), 2):
        c = pair_difference_counts(S[i], S[j], f.N)
        a = next((a for a in range(f.N) if c[a] >= q), None)
        if a is not None:
            return False, (i, j, f.from_idx(a))
    return True, None


def orbit_size(U):
    """N / |stabiliser|, the stabiliser being the a with omega^a U = U."""
    c = _self_counts(U)
    return U.field.N // sum(1 for v in c if v >= len(U.span_idx) - 1)


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


def poly_exp_table(fld):
    """Oracle for the field's exp, log and zech tables: step the digit
    vector of omega^i by one polynomial product mod the modulus per element,
    and add 1 to the constant digit for zech."""
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
    return exp, log, zech


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
def _coord_map(emb):
    """Prime-field coordinate matrix and generator powers of a subfield."""
    f = emb.field
    d, m = emb.degree, f.e // emb.degree
    cols = []
    for j in range(m):
        wj = f.from_idx(j)
        for l in range(d):
            el = wj * emb.generator ** l
            cols.append(f._compute_digits(el.code))
    rows = [[cols[c][r] for c in range(f.e)] for r in range(f.e)]
    return _matinv_mod(rows, f.p), [emb.generator ** l for l in range(d)]


def subfield_coords(emb, x):
    """Coordinates of x over the subfield emb, in the power basis
    {1, omega, ..., omega^(m-1)} of the big field (length m = e/d)."""
    f = emb.field
    coord_rows, gen_powers = _coord_map(emb)
    d, m = emb.degree, f.e // emb.degree
    vec = f._compute_digits(x.code)
    b = [sum(r * v for r, v in zip(row, vec)) % f.p for row in coord_rows]
    out = []
    for j in range(m):
        c = f.zero()
        for l in range(d):
            if b[j * d + l]:
                c = c + f.from_idx(f.log[b[j * d + l]]) * gen_powers[l]
        out.append(c)
    return tuple(out)


def _rank(vectors):
    """Rank of a list of coordinate vectors (entries are field elements)."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows))
                      if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = inverse(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            if not rows[r][col].is_zero():
                f = rows[r][col] * inv
                rows[r] = [sub(a, f * b)
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_dim_intersection(U, V):
    """Oracle for dim(U ∩ V): rank of the stacked bases' F_q-coordinates."""
    emb = U.field.subfield(U.ground_q)
    vectors = [subfield_coords(emb, b) for b in U.basis + V.basis]
    return U.dim + V.dim - _rank(vectors)


def greedy_coset_representatives(U):
    """Oracle for coset_representatives: the first-fit scan that tests each
    omega^a against U and every F_q-multiple of the representatives so far,
    by field subtraction; returns the representatives' log indices."""
    f, q = U.field, U.ground_q
    units = f.subfield(q).elements()[1:]
    t = (f.order // q ** U.dim - 1) // (q - 1)
    reps = []
    for a in range(f.N):
        d = f.from_idx(a)
        if d.idx in U.span_idx:
            continue
        if any(sub(d, lam * r).idx in U.span_idx
               for r in reps for lam in units):
            continue
        reps.append(d)
        if len(reps) == t:
            break
    return [d.idx for d in reps]


def field_coset_family(code):
    """Oracle for build_coset_family: for each U_i and each of its greedy
    representatives d, the coset {u + d : u in U_i} by field addition, as
    the frozenset of its members' log indices."""
    cosets = []
    for U in code.representatives:
        f = U.field
        members = [f.from_idx(x) for x in U.span_idx]
        for a in greedy_coset_representatives(U):
            d = f.from_idx(a)
            cosets.append(frozenset((u + d).idx for u in members))
    return CosetFamily(tuple(cosets))


def canonical_sidon_f64():
    """First 3-dim Sidon space of F_64 over F_2, in canonical basis order."""
    f = field_create(2, 6)
    seen = set()
    for trip in itertools.combinations(range(f.N), 3):
        U = span(f, [f.from_idx(i) for i in trip], 2)
        if U.dim != 3 or U.span_idx in seen:
            continue
        seen.add(U.span_idx)
        ok, _ = is_sidon(U)
        if ok:
            return U
    raise AssertionError("no Sidon space found in F_64")


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
