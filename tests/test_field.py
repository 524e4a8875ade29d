"""Field arithmetic, discrete logs, subfields, norms and counting."""

import itertools
import json
import math
import random

import pytest
from sympy import GF, Poly, Symbol, factorint

from oocgen import (FieldError, field_create, field_from_descriptor,
                    field_for_prime_power, gaussian_binomial)
from oocgen.field import _prime_factors, canonical_modulus
from conftest import first_irreducible, poly_exp_table, subfield_coords


def test_prime_field_f2():
    f = field_create(2, 1)
    assert f.N == 1
    assert f.omega == f.one()


def test_f81_omega_has_exact_order_80():
    f = field_create(3, 4)
    w = f.omega
    acc = f.one()
    for i in range(1, 80):
        acc = acc * w
        assert acc != f.one(), f"omega^{i} = 1"
    assert acc * w == f.one()


def test_explicit_modulus_f16():
    f = field_create(2, 4, [1, 1, 0, 0, 1])  # x^4 + x + 1
    assert f.N == 15
    for code in range(1, 16):
        x = f.from_code(code)
        assert f.exp[f.log[code]] == code
        assert f.from_idx(x.idx) == x


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError, match="factor"):
        field_create(2, 4, [1, 0, 0, 0, 1])  # x^4 + 1 = (x+1)^4


def test_nonprime_p_rejected():
    for p in [6, 1, 0, -3, 9, 3.0]:
        with pytest.raises(FieldError, match="not prime"):
            field_create(p, 2)


def test_canonical_modulus_agrees_with_sympy():
    x = Symbol("x")
    for p, e in [(2, 4), (3, 4), (5, 4), (2, 6)]:
        f = field_create(p, e)
        poly = Poly(list(reversed(f.modulus)), x, domain=GF(p))
        assert poly.is_irreducible


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_canonical_modulus_is_first_irreducible_of_full_scan(p):
    for e in range(1, 7):
        assert canonical_modulus(p, e) == first_irreducible(p, e)


# (10007, 1) guards against any table that grows as p^2
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (10007, 1), (2, 5), (2, 12),
                                 (3, 5), (3, 8), (5, 3), (7, 4), (13, 3),
                                 (31, 3)])
def test_tables_match_polynomial_stepping_oracle(p, e):
    f = field_create(p, e)
    exp, log, zech = poly_exp_table(f)
    assert log.count(-1) == 1
    assert f.modulus == tuple(first_irreducible(p, e))
    assert f.exp == exp
    assert f.log == log
    assert f.zech == zech
    # omega^L has order N / gcd(L, N): omega is the smallest primitive code
    assert f.omega_code == min(c for c in range(1, f.order)
                               if math.gcd(log[c], f.N) == 1)


def test_dlog_examples():
    f = field_create(3, 4)
    assert f.dlog(f.one()) == 0
    assert f.dlog(f.omega) == 1
    assert f.dlog(f.from_idx(5) * f.from_idx(79)) == 4


def test_dlog_is_homomorphic():
    f = field_create(2, 4)
    rng = random.Random(7)
    for _ in range(50):
        a, b = f.from_idx(rng.randrange(15)), f.from_idx(rng.randrange(15))
        assert f.dlog(a * b) == (f.dlog(a) + f.dlog(b)) % f.N


def test_dlog_of_zero_rejected():
    f = field_create(3, 4)
    with pytest.raises(FieldError):
        f.dlog(f.zero())


def test_exp_log_bijection_f81():
    f = field_create(3, 4)
    for i in range(f.N):
        assert f.dlog(f.from_idx(i)) == i
    for code in range(1, f.order):
        x = f.from_code(code)
        assert x.code == code


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(p, e):
    f = field_create(p, e)
    elems = list(f.iter_elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _digitwise(f, *codes, sign=1):
    """sign * (sum of the codes), digit by digit mod p: the coefficient-vector
    sum, computed without the field's tables."""
    out, scale = 0, 1
    codes = list(codes)
    for _ in range(f.e):
        out += (sign * sum(c % f.p for c in codes) % f.p) * scale
        codes = [c // f.p for c in codes]
        scale *= f.p
    return out


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 3), (3, 2)])
def test_zech_addition_and_negation_exhaustive(p, e):
    f = field_create(p, e)
    elems = list(f.iter_elements())
    for a in elems:
        assert (-a).code == _digitwise(f, a.code, sign=-1)
        for b in elems:
            assert (a + b).code == _digitwise(f, a.code, b.code)


@pytest.mark.parametrize("p,e", [(3, 4), (2, 6)])
def test_zech_addition_and_negation_random(p, e):
    f = field_create(p, e)
    rng = random.Random(p ** e)
    for _ in range(2000):
        a = f.from_idx(rng.randrange(-1, f.N))
        b = f.from_idx(rng.randrange(-1, f.N))
        assert (a + b).code == _digitwise(f, a.code, b.code)
        assert (-a).code == _digitwise(f, a.code, sign=-1)
        assert (a - b) + b == a


def test_prime_factors_match_sympy():
    for n in range(20000):
        assert _prime_factors(n) == (factorint(n) if n > 1 else {})


def test_field_axioms_random_f81():
    f = field_create(3, 4)
    rng = random.Random(81)
    elems = list(f.iter_elements())
    for _ in range(300):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_frobenius_is_additive():
    f = field_create(3, 2)
    for a, b in itertools.product(f.iter_elements(), repeat=2):
        assert (a + b) ** 3 == a ** 3 + b ** 3


def test_subfield_closure():
    f = field_create(3, 4)
    emb = f.subfield(9)
    elems = emb.elements()
    assert len(elems) == 9
    eset = set(elems)
    for a, b in itertools.product(elems, repeat=2):
        assert a + b in eset
        assert a * b in eset


def test_subfield_invalid_order_rejected():
    f = field_create(3, 4)
    with pytest.raises(FieldError):
        f.subfield(27)  # 3^3, 3 does not divide 4


def test_rel_norm_identity_and_order():
    f = field_create(3, 4)
    assert f.rel_norm(f.one(), 9, 3) == f.one()
    wk = f.subfield(9).generator
    nu = f.rel_norm(wk, 9, 3)
    # norm of a generator has multiplicative order q - 1 = 2
    assert nu != f.one()
    assert nu * nu == f.one()


def test_rel_norm_multiplicative_exhaustive():
    f = field_create(3, 4)
    emb = f.subfield(9)
    for a, b in itertools.product(emb.nonzero_elements(), repeat=2):
        assert f.rel_norm(a * b, 9, 3) == f.rel_norm(a, 9, 3) * f.rel_norm(b, 9, 3)


def test_rel_norm_lands_in_subfield():
    f = field_create(2, 6)
    emb3 = f.subfield(8)
    sub = f.subfield(2)
    for x in emb3.nonzero_elements():
        assert sub.contains(f.rel_norm(x, 8, 2))


def test_rel_norm_rejects_outsiders():
    f = field_create(3, 4)
    outsider = next(x for x in f.iter_elements()
                    if not x.is_zero() and not f.subfield(9).contains(x))
    with pytest.raises(FieldError):
        f.rel_norm(outsider, 9, 3)


def test_irreducible_quadratic():
    f = field_create(3, 4)
    one = f.one()
    # x^2 - 1 has root 1
    assert not f.is_irreducible_quadratic(f.zero(), -one, 9)
    f2 = field_create(2, 6)
    # x^2 + x + 1 over F_2
    assert f2.is_irreducible_quadratic(f2.one(), f2.one(), 2)


def test_irreducible_quadratic_matches_root_count():
    f = field_create(3, 4)
    emb = f.subfield(9)
    for b, c in itertools.product(emb.elements(), repeat=2):
        roots = sum(1 for t in emb.elements()
                    if (t * t + b * t + c).is_zero())
        assert f.is_irreducible_quadratic(b, c, 9) == (roots == 0)


def test_gaussian_binomial_basics():
    assert gaussian_binomial(7, 0, 2) == 1
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 5, 2) == 0


def test_gaussian_binomial_vs_enumeration():
    # count 2-dim subspaces of F_2^4 by brute force over basis pairs
    vectors = list(range(1, 16))
    seen = set()
    for a, b in itertools.combinations(vectors, 2):
        spanset = frozenset({0, a, b, a ^ b})
        if len(spanset) == 4:
            seen.add(spanset)
    assert gaussian_binomial(4, 2, 2) == len(seen) == 35


def test_descriptor_roundtrip_bit_exact():
    f = field_create(5, 4)
    desc = json.loads(f.to_json())
    g = field_from_descriptor(desc)
    assert g.exp == f.exp
    assert g.log == f.log
    assert g.modulus == f.modulus


def test_prime_power_field():
    f = field_for_prime_power(4, 2)  # F_16 as F_2^4
    assert (f.p, f.e) == (2, 4)
    with pytest.raises(FieldError):
        field_for_prime_power(6, 2)


def test_coords_reconstruct():
    f = field_create(3, 4)
    emb = f.subfield(9)
    rng = random.Random(11)
    for _ in range(30):
        x = f.from_idx(rng.randrange(-1, f.N))
        coords = subfield_coords(emb, x)
        assert len(coords) == 2
        assert all(emb.contains(c) for c in coords)
        rebuilt = coords[0] + coords[1] * f.omega
        assert rebuilt == x


def test_coords_prime_subfield():
    f = field_create(2, 6)
    emb = f.subfield(2)
    x = f.from_idx(17)
    coords = subfield_coords(emb, x)
    acc = f.zero()
    for j, c in enumerate(coords):
        acc = acc + c * f.omega ** j
    assert acc == x
