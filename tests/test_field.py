"""Field arithmetic, discrete logs, subfields, norms and counting."""

import gc
import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st
from sympy import GF, Poly, Symbol, factorint

from oocgen import (FieldError, factor_prime_power, field, field_create,
                    field_from_descriptor, field_for_prime_power)
from oocgen.field import (ExtensionField, _prime_factors, _resultant,
                          canonical_modulus)
from conftest import (code_of, first_irreducible, gaussian_binomial, log_of,
                      neg, poly_exp_table, sub, subfield_coords)


def test_prime_field_f2():
    f = field_create(2, 1)
    assert f.N == 1
    assert f.mul(0, 0) == 0  # omega = 1
    assert f.add(0, 0) == -1  # 1 + 1 = 0


def test_f81_omega_has_exact_order_80():
    f = field_create(3, 4)
    acc = 1
    for i in range(1, 80):
        acc = f.mul_codes(acc, f.omega_code)
        assert acc != 1, f"omega^{i} = 1"
        assert code_of(f, i) == acc
    assert f.mul_codes(acc, f.omega_code) == 1


def test_explicit_modulus_f16():
    f = field_create(2, 4, [1, 1, 0, 0, 1])  # x^4 + x + 1
    assert f.N == 15
    exp, log, zech = poly_exp_table(f)
    assert tuple(f.zech) == zech
    for code in range(1, 16):
        assert exp[log[code]] == code


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
                                 (3, 5), (3, 8), (5, 3), (5, 5), (7, 4),
                                 (13, 3), (31, 3)])
def test_tables_match_polynomial_stepping_oracle(p, e):
    f = field_create(p, e)
    exp, log, zech = poly_exp_table(f)
    assert log.count(-1) == 1
    assert f.modulus == tuple(first_irreducible(p, e))
    # the field keeps its Zech table alone
    assert not hasattr(f, "exp") and not hasattr(f, "log")
    assert tuple(f.zech) == zech
    # omega^L has order N / gcd(L, N): omega is the smallest primitive code
    assert f.omega_code == min(c for c in range(1, f.order)
                               if math.gcd(log[c], f.N) == 1)


# the norm to F_p of c is c^(N/(p-1)), a constant; Res(modulus, c) finds it
# without square-and-multiply
@given(st.sampled_from([(3, 1), (3, 8), (5, 5), (7, 4), (11, 2), (13, 3)]),
       st.data())
def test_resultant_is_the_norm_and_decides_the_order(pe, data):
    p, e = pe
    f = field_create(p, e)
    c = data.draw(st.integers(1, f.order - 1))
    norm = _resultant(f.modulus, f._compute_digits(c), p)
    assert norm == f.pow_code(c, f.N // (p - 1))
    assert f._has_full_order(c) == all(
        f.pow_code(c, f.N // t) != 1 for t in _prime_factors(f.N))


@pytest.mark.parametrize("p,e", [(2, 6), (3, 8), (7, 4), (13, 3)])
def test_log_table_makes_e_products(monkeypatch, p, e):
    f = field_create(p, e)
    calls = []
    mul_codes = f.mul_codes

    def counted(a, b):
        calls.append(b)
        return mul_codes(a, b)

    monkeypatch.setattr(f, "mul_codes", counted)
    log = f._log_table()
    # omega times x^j, j < e: the codes of x^j are p^j
    assert sorted(calls) == [p ** j for j in range(e)]
    assert tuple(log) == poly_exp_table(f)[1]


@pytest.mark.parametrize("p,e", [(3, 8), (5, 5), (7, 4), (13, 3)])
def test_order_test_takes_pow_code_only_for_primes_not_dividing_p_minus_1(
        monkeypatch, p, e):
    f = field_create(p, e)
    exps = []
    pow_code = f.pow_code

    def counted(a, x):
        exps.append(x)
        return pow_code(a, x)

    monkeypatch.setattr(f, "pow_code", counted)
    verdicts = [f._has_full_order(c) for c in range(1, 200)]
    # each exponent is N/t for a prime t that does not divide p - 1
    assert exps and all((p - 1) % (f.N // x) for x in exps)
    monkeypatch.undo()
    assert verdicts == [all(f.pow_code(c, f.N // t) != 1
                            for t in _prime_factors(f.N))
                        for c in range(1, 200)]


@pytest.mark.parametrize("p,e", [(3, 8), (2, 12)])
def test_tables_take_under_20_bytes_per_element(p, e):
    # named for its first bound, now tighter: the build peaks with a 4-byte
    # log and a 4-byte Zech table (8 B/element) plus the omega-step tables,
    # under 12 B; the field keeps only the Zech table, under 7 B
    gc.collect()
    tracemalloc.start()
    try:
        f = ExtensionField(p, e)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / f.order < 12
    assert kept / f.order < 7


@pytest.mark.parametrize("p,e", [(2, 1), (2, 6), (3, 5), (5, 3), (7, 2)])
def test_pow_code_matches_repeated_mul_codes(p, e):
    f = field_create(p, e)
    rng = random.Random(p * 100 + e)
    for a in [1, f.omega_code] + [rng.randrange(f.order) for _ in range(4)]:
        ts = [0, 1, 2] + [rng.randrange(3, 3 * f.order) for _ in range(3)]
        for t in ts:
            acc = 1
            for _ in range(t):
                acc = f.mul_codes(acc, a)
            assert f.pow_code(a, t) == acc, (a, t)


@given(st.sampled_from([(2, 1), (2, 8), (3, 1), (3, 5), (5, 1), (5, 3),
                        (7, 1), (7, 3)]), st.data())
def test_mul_codes_matches_sympy_product_mod_modulus(pe, data):
    # an oracle outside the library: sympy's product and remainder over F_p
    p, e = pe
    f = field_create(p, e)
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    x = Symbol("x")

    def poly(code):
        digits = [code // p ** i % p for i in range(e)]
        return Poly(digits[::-1], x, modulus=p)

    rem = (poly(a) * poly(b)).rem(Poly(f.modulus[::-1], x, modulus=p))
    assert f.mul_codes(a, b) == sum(c % p * p ** i for i, c in
                                    enumerate(reversed(rem.all_coeffs())))


# An element is its discrete log, the index i with omega^i = x; -1 is zero.

def test_dlog_examples():
    f = field_create(3, 4)
    assert code_of(f, 0) == 1 and log_of(f, 0) == -1
    assert f.mul(80, 0) == 0
    assert f.mul(5, 79) == 4
    assert f.mul(-1, 5) == f.mul(5, -1) == -1


def test_dlog_is_homomorphic():
    f = field_create(2, 4)
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.randrange(15), rng.randrange(15)
        assert code_of(f, f.mul(a, b)) == f.mul_codes(code_of(f, a),
                                                      code_of(f, b))


def _field_axioms_hold(f, a, b, c):
    add, mul = f.add, f.mul
    return (add(add(a, b), c) == add(a, add(b, c))
            and mul(mul(a, b), c) == mul(a, mul(b, c))
            and mul(a, add(b, c)) == add(mul(a, b), mul(a, c)))


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(p, e):
    f = field_create(p, e)
    for a, b, c in itertools.product(range(-1, f.N), repeat=3):
        assert _field_axioms_hold(f, a, b, c), (a, b, c)


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
    for a in range(-1, f.N):
        ca = code_of(f, a)
        assert code_of(f, neg(f, a)) == _digitwise(f, ca, sign=-1)
        for b in range(-1, f.N):
            assert code_of(f, f.add(a, b)) == _digitwise(f, ca, code_of(f, b))


@pytest.mark.parametrize("p,e", [(3, 4), (2, 6)])
def test_zech_addition_and_negation_random(p, e):
    f = field_create(p, e)
    rng = random.Random(p ** e)
    for _ in range(2000):
        a = rng.randrange(-1, f.N)
        b = rng.randrange(-1, f.N)
        ca, cb = code_of(f, a), code_of(f, b)
        assert code_of(f, f.add(a, b)) == _digitwise(f, ca, cb)
        assert code_of(f, neg(f, a)) == _digitwise(f, ca, sign=-1)
        assert f.add(sub(f, a, b), b) == a


def test_prime_factors_match_sympy():
    for n in range(20000):
        assert _prime_factors(n) == (factorint(n) if n > 1 else {})


def test_factor_prime_power_matches_sympy():
    for q in (*range(-2, 5000), 3 ** 16, 5 ** 11, 7 ** 9, 8191 ** 2, 2 ** 26,
              2 ** 26 - 5, 8191 * 8179):
        factors = factorint(q) if q > 1 else {}
        if len(factors) == 1:
            assert factor_prime_power(q) == next(iter(factors.items()))
        else:
            with pytest.raises(FieldError, match="not a prime power"):
                factor_prime_power(q)
    for q in (2 ** 26 + 1, 2 ** 61 - 1, 3 ** 40, 10 ** 18):
        with pytest.raises(FieldError, match="is too large"):
            factor_prime_power(q)
    with pytest.raises(FieldError, match="is too large"):
        field_create(2 ** 89 - 1, 1)


def test_order_above_the_limit_is_refused_before_any_table(monkeypatch):
    def unreachable(p, e):
        raise AssertionError("modulus search started")
    monkeypatch.setattr(field, "canonical_modulus", unreachable)
    monkeypatch.setattr(field, "_FIELD_CACHE", {})
    monkeypatch.setattr(field, "MAX_ORDER", 80)
    with pytest.raises(FieldError, match="would need 648 bytes"):
        field_create(3, 4)
    with pytest.raises(FieldError,
                       match="F_1125899906842624\\^1 is too large"):
        field_for_prime_power(2 ** 50, 2)
    monkeypatch.setattr(field, "MAX_ORDER", 81)
    with pytest.raises(AssertionError, match="modulus search started"):
        field_create(3, 4)


def test_field_axioms_random_f81():
    f = field_create(3, 4)
    rng = random.Random(81)
    elems = range(-1, f.N)
    for _ in range(300):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert _field_axioms_hold(f, a, b, c), (a, b, c)


def test_frobenius_is_additive():
    f = field_create(3, 2)

    def cube(x):
        return f.mul(f.mul(x, x), x)

    for a, b in itertools.product(range(-1, f.N), repeat=2):
        assert cube(f.add(a, b)) == f.add(cube(a), cube(b))


def test_subfield_closure():
    f = field_create(3, 4)
    stride = f.subfield_stride(9)
    assert stride == 10
    elems = [-1, *range(0, f.N, stride)]
    assert len(elems) == 9
    eset = set(elems)
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) in eset
        assert f.mul(a, b) in eset


def test_subfield_invalid_order_rejected():
    f = field_create(3, 4)
    with pytest.raises(FieldError):
        f.subfield_stride(27)  # 3^3, 3 does not divide 4
    for order in (0, 1, 6, 3 ** 8, 2 ** 61 - 1):  # 2^61 - 1 is prime
        with pytest.raises(FieldError, match="not a subfield order"):
            f.subfield_stride(order)


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
    desc = json.loads(json.dumps(f.descriptor()))
    g = field_from_descriptor(desc)
    assert g is not f
    assert g.zech == f.zech
    assert g.modulus == f.modulus


def test_empty_modulus_is_rejected_after_the_canonical_field_is_cached():
    # [] must not share the cache entry of modulus=None (the canonical field)
    field_create(2, 2)
    with pytest.raises(FieldError, match="monic of degree 2"):
        field_from_descriptor({"p": 2, "e": 2, "modulus": []})


def test_prime_power_field():
    f = field_for_prime_power(4, 2)  # F_16 as F_2^4
    assert (f.p, f.e) == (2, 4)
    with pytest.raises(FieldError):
        field_for_prime_power(6, 2)


def test_coords_reconstruct():
    f = field_create(3, 4)
    stride = f.subfield_stride(9)
    rng = random.Random(11)
    for _ in range(30):
        x = rng.randrange(-1, f.N)
        coords = subfield_coords(f, 9, x)
        assert len(coords) == 2
        assert all(c < 0 or c % stride == 0 for c in coords)
        assert f.add(coords[0], f.mul(coords[1], 1)) == x


def test_coords_prime_subfield():
    f = field_create(2, 6)
    coords = subfield_coords(f, 2, 17)
    acc = -1
    for j, c in enumerate(coords):
        acc = f.add(acc, f.mul(c, j))
    assert acc == 17
