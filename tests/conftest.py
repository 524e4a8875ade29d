"""Shared fixtures and independent oracles for the test suite."""

import functools
import itertools

import pytest

from oocgen import (CyclicSubspaceCode, build_ooc, code_min_distance,
                    construct_g, field_create, is_sidon, span)
from oocgen.field import find_irreducible_factor


def bit_corr(xbits, ybits, tau):
    """Definition-level correlation sum: sum_t x_t * y_{t+tau} (cyclic)."""
    n = len(xbits)
    return sum(xbits[t] * ybits[(t + tau) % n] for t in range(n))


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
        wj = f.omega ** j if f.N > 1 else f.one()
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
                c = c + f.from_code(b[j * d + l]) * gen_powers[l]
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
        inv = rows[rank][col].inverse()
        for r in range(rank + 1, len(rows)):
            if not rows[r][col].is_zero():
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_dim_intersection(U, V):
    """Oracle for dim(U ∩ V): rank of the stacked bases' F_q-coordinates."""
    emb = U.field.subfield(U.ground_q)
    vectors = [subfield_coords(emb, b) for b in U.basis + V.basis]
    return U.dim + V.dim - _rank(vectors)


def greedy_coset_representatives(U):
    """Oracle for coset_representatives: the first-fit scan that tests each
    omega^a against U and every F_q-multiple of the representatives so far."""
    f, q = U.field, U.ground_q
    units = f.subfield(q).nonzero_elements()
    t = (f.order // q ** U.dim - 1) // (q - 1)
    reps = []
    for a in range(f.N):
        d = f.from_idx(a)
        if d.idx in U.span_idx:
            continue
        if any((d - lam * r).idx in U.span_idx
               for r in reps for lam in units):
            continue
        reps.append(d)
        if len(reps) == t:
            break
    return reps


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
    code.min_distance = code_min_distance(code)
    ooc, params, report = build_ooc(code)
    return code, ooc, params, report
