"""Subspaces, Sidon certification, orbits, constructions, coset families.

The Sidon, multi-Sidon and orbit checks are the pair-loop helpers in
conftest; the library's own sweep is code_min_distance.
"""

import itertools
import random
from fractions import Fraction

import pytest

from oocgen import (CyclicSubspaceCode, SubspaceError, build_coset_family,
                    build_ooc, code_min_distance, construct_g, construct_w,
                    coset_representatives, field_create, span,
                    validate_multi_orbit)
from oocgen import ooc, subspaces
from oocgen.subspaces import Subspace, _log_exact
from conftest import (canonical_sidon_f64, code_size, field_coset_family,
                      gaussian_binomial, greedy_coset_representatives,
                      is_multi_sidon, is_sidon, orbit_size,
                      rank_dim_intersection, scaled, sub)


F81 = field_create(3, 4)


def _subspace(field, idxs, q):
    return span(field, [field.from_idx(i) for i in idxs], q)


# ---------------------------------------------------------------------------
# span
# ---------------------------------------------------------------------------

def test_span_empty():
    U = span(F81, [], 3)
    assert U.dim == 0
    assert U.span_idx == {-1}


def test_span_two_independent():
    omega = F81.from_idx(1)
    U = span(F81, [F81.one(), omega], 3)
    assert U.dim == 2
    assert len(U.span_idx) == 9
    # oracle: enumerate all 9 F_3-combinations directly
    combos = {(F81.from_idx(F81.log[a]) * F81.one()
               + F81.from_idx(F81.log[b]) * omega).idx
              for a in range(3) for b in range(3)}
    assert combos == U.span_idx


def test_span_reduces_dependent_input():
    two = F81.one() + F81.one()
    U = span(F81, [F81.one(), two], 3)
    assert U.dim == 1


# ---------------------------------------------------------------------------
# intersections, ground fields and subspace sizes
# ---------------------------------------------------------------------------

# rank_dim_intersection is the reference in the distance sweep's test
# below; it must agree with the intersection of the cached spans

def _span_dim_intersection(U, V):
    return _log_exact(len(U.span_idx & V.span_idx), U.ground_q)


def test_dim_intersection_subfield_vs_scaled():
    emb = F81.subfield(9)
    U = span(F81, emb.elements(), 3)
    V = scaled(U, 1)
    assert _span_dim_intersection(U, V) == rank_dim_intersection(U, V)


def test_dim_intersection_random_vs_rank_oracle():
    rng = random.Random(3)
    for _ in range(40):
        U = _subspace(F81, rng.sample(range(80), 2), 3)
        V = _subspace(F81, rng.sample(range(80), 2), 3)
        assert _span_dim_intersection(U, V) == rank_dim_intersection(U, V)


def test_log_exact_rejects_non_power():
    assert _log_exact(27, 3) == 3
    with pytest.raises(SubspaceError):
        _log_exact(10, 3)


def test_mismatched_fields_rejected():
    f16 = field_create(2, 4)
    U = _subspace(F81, [0], 3)
    V = _subspace(f16, [0], 2)
    with pytest.raises(SubspaceError, match="different ambient fields"):
        CyclicSubspaceCode(F81, 3, (U, V))
    # the same dimension over F_9 and over F_3
    W = _subspace(F81, [0], 9)
    with pytest.raises(SubspaceError, match="ground fields F_3 and F_9"):
        CyclicSubspaceCode(F81, 3, (U, W))
    with pytest.raises(SubspaceError, match="ground fields F_9 and F_3"):
        CyclicSubspaceCode(F81, 9, (W, U))


# ---------------------------------------------------------------------------
# Sidon and multi-Sidon certification
# ---------------------------------------------------------------------------

def test_one_dimensional_is_sidon():
    ok, wit = is_sidon(_subspace(F81, [7], 3))
    assert ok and wit is None


def test_subfield_is_not_sidon():
    emb = F81.subfield(9)
    U = span(F81, emb.elements(), 3)
    ok, wit = is_sidon(U)
    assert not ok
    # witness lies in F_9 \ F_3, where alpha*U = U
    assert emb.contains(wit)
    assert not F81.subfield(3).contains(wit)


def test_construction_space_is_sidon(pipeline_q3):
    code, _, _, _ = pipeline_q3
    ok, _ = is_sidon(code.representatives[0])
    assert ok


def test_multi_sidon_singleton(pipeline_q3):
    code, _, _, _ = pipeline_q3
    ok, wit = is_multi_sidon([code.representatives[0]])
    assert ok and wit is None


def test_multi_sidon_rejects_proportional_pair():
    U = _subspace(F81, [0, 1], 3)
    V = scaled(U, 1)
    ok, wit = is_multi_sidon([U, V])
    assert not ok
    i, j, alpha = wit
    spaces = [U, V]
    # the witness exhibits an overlap of dimension >= 2
    overlap = spaces[i].span_idx & scaled(spaces[j], alpha.idx).span_idx
    assert len(overlap) >= 9


def test_multi_sidon_construction(pipeline_q5):
    code, _, _, _ = pipeline_q5
    ok, wit = is_multi_sidon(list(code.representatives))
    assert ok, wit


def test_multi_sidon_rejects_duplicates():
    U = _subspace(F81, [0, 1], 3)
    with pytest.raises(SubspaceError):
        is_multi_sidon([U, U])


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_of_whole_field():
    U = span(F81, [F81.from_idx(i) for i in range(80)], 3)
    assert U.dim == 4
    assert orbit_size(U) == 1


def test_orbit_of_subfield():
    U = span(F81, F81.subfield(9).elements(), 3)
    assert orbit_size(U) == 80 // 8  # stabilizer F_9^*


def test_orbit_of_sidon_space_is_full_length(pipeline_q3):
    code, _, _, _ = pipeline_q3
    U = code.representatives[0]
    assert orbit_size(U) == 80 // 2
    # omega^a U for a < orbit_size(U) are distinct; omega^40 U = U
    assert len({scaled(U, a).span_idx for a in range(40)}) == 40
    assert scaled(U, 40).span_idx == U.span_idx


def test_orbit_size_formula():
    # orbit size is (q^m-1)/(q^t-1) for some t | m
    rng = random.Random(9)
    for _ in range(15):
        U = _subspace(F81, rng.sample(range(80), 2), 3)
        size = orbit_size(U)
        assert any(size == 80 // (3 ** t - 1)
                   for t in (1, 2, 4) if 80 % (3 ** t - 1) == 0)


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def test_code_min_distance_vs_full_pair_sweep():
    # one orbit of U = F_4 inside F_16 over F_2, checked against the
    # exhaustive all-pairs oracle
    f16 = field_create(2, 4)
    U = span(f16, f16.subfield(4).elements(), 2)
    code = CyclicSubspaceCode(f16, 2, (U,))
    orb = {V.span_idx: V for V in (scaled(U, a) for a in range(f16.N))}
    orb = list(orb.values())
    assert len(orb) == orbit_size(U)
    oracle = min(
        V1.dim + V2.dim - 2 * rank_dim_intersection(V1, V2)
        for V1, V2 in itertools.combinations(orb, 2))
    assert code_min_distance(code) == oracle == 4


def test_min_distance_of_g_codes(pipeline_q3, pipeline_q5):
    assert pipeline_q3[0].min_distance == 2
    assert pipeline_q5[0].min_distance == 2


def test_code_min_distance_counts_each_orbit_pair_once(monkeypatch,
                                                       pipeline_q3,
                                                       pipeline_q5):
    # one kernel pass over the r representatives: column j holds the
    # blocks i <= j, r(r + 1)/2 orbit pairs in all
    calls = []
    real = subspaces._column_counts

    def counting(sets, n):
        sets = list(sets)
        calls.append(len(sets))
        return real(sets, n)

    monkeypatch.setattr(subspaces, "_column_counts", counting)
    for code in (pipeline_q3[0], pipeline_q5[0]):
        d = code.min_distance
        calls.clear()
        assert code_min_distance(code) == d
        assert calls == [len(code.representatives)]  # r = 1, then r = 2


def test_construct_sweeps_orbit_pairs_once(monkeypatch):
    # the distance is counted once per code: build_ooc and the coset
    # family's disjointness check read it, and verify_oos counts the words
    calls = []
    real = subspaces._column_counts

    def counting(sets, n):
        sets = list(sets)
        calls.append(len(sets))
        return real(sets, n)

    monkeypatch.setattr(subspaces, "_column_counts", counting)
    monkeypatch.setattr(ooc, "_column_counts", counting)
    code = construct_g(7, 2, 1)
    _, params, _ = build_ooc(code)
    assert calls == [3, 24]  # r = 3 orbits, then r * t = 24 words
    assert params.lam == 7 ** (2 - code.min_distance // 2)
    assert code.orbits_disjoint() and calls == [3, 24]


def test_min_distance_single_subspace_rejected():
    U = span(F81, [F81.from_idx(i) for i in range(80)], 3)
    with pytest.raises(SubspaceError, match="undefined"):
        code_min_distance(CyclicSubspaceCode(F81, 3, (U,)))
    # nine log indices, but not closed under addition: the count 1 at
    # alpha = omega^7 makes |V ∩ alpha V| = 2, no power of 3
    V = Subspace(F81, 3, [F81.from_idx(0), F81.from_idx(1)],
                 [-1, *range(8)])
    with pytest.raises(SubspaceError, match="set of size 2 is not F_3"):
        code_min_distance(CyclicSubspaceCode(F81, 3, (V,)))


def test_bad_norm_pair_lowers_distance():
    # mus with equal relative norms violate Theorem-style conditions and the
    # two-orbit code collapses below distance 2k - 2
    f = field_create(5, 4)
    emb = f.subfield(25)
    w = emb.generator
    b = next(c for c in emb.elements() if f.is_irreducible_quadratic(c, w, 25))
    xi = next(t for t in f.iter_elements()
              if not t.is_zero() and (t * t + b * t + w).is_zero())
    mus = [f.one(), w ** 4]  # norm(w)^4 = norm(w^4) since norm(w) has order 4
    ok, report = validate_multi_orbit(f, 5, 2, mus, xi)
    assert not ok
    assert report[0]["condition"] == "equal norms"
    U1 = construct_w(f, 5, 2, 1, mus[0], xi)
    U2 = construct_w(f, 5, 2, 1, mus[1], xi)
    assert U1.span_idx != U2.span_idx
    code = CyclicSubspaceCode(f, 5, (U1, U2))
    assert (not code.orbits_disjoint()
            or code_min_distance(code) < 2)


# ---------------------------------------------------------------------------
# explicit constructions
# ---------------------------------------------------------------------------

def test_construct_w_mu_zero_gives_subfield():
    emb = F81.subfield(9)
    xi = next(x for x in F81.iter_elements()
              if not x.is_zero() and not emb.contains(x))
    U = construct_w(F81, 3, 2, 1, F81.zero(), xi)
    assert U.span_idx == span(F81, emb.elements(), 3).span_idx


def test_construct_w_gcd_degenerate_not_sidon():
    # s = 2 with k = 2: x^(q^s) = x on F_9, so W is a scalar multiple of F_9
    emb = F81.subfield(9)
    xi = next(x for x in F81.iter_elements()
              if not x.is_zero() and not emb.contains(x)
              and not (F81.one() + x).is_zero())
    U = construct_w(F81, 3, 2, 2, F81.one(), xi)
    subfield = span(F81, emb.elements(), 3)
    assert U.span_idx == scaled(subfield, (F81.one() + xi).idx).span_idx
    ok, wit = is_sidon(U)
    assert not ok and wit is not None


def test_construct_w_basis_is_what_span_picks():
    # images of 1, g, ..., g^(k-1) under x -> x + xi mu x^(q^s)
    emb = F81.subfield(9)
    xi = next(x for x in F81.iter_elements()
              if not x.is_zero() and not emb.contains(x))
    checked = 0
    for mu in emb.elements()[1:]:
        try:
            U = construct_w(F81, 3, 2, 1, mu, xi)
        except SubspaceError:
            continue
        images = [x + xi * mu * x ** 3 for x in emb.elements()]
        V = span(F81, images, 3)
        assert U.basis == V.basis and U.span_idx == V.span_idx
        checked += 1
    assert checked


def test_construct_w_valid_is_sidon():
    emb = F81.subfield(9)
    for xi in F81.iter_elements():
        if xi.is_zero() or emb.contains(xi):
            continue
        try:
            U = construct_w(F81, 3, 2, 1, F81.one(), xi)
        except SubspaceError:
            continue
        if is_sidon(U)[0]:
            assert U.dim == 2
            return
    pytest.fail("no Sidon space produced")


def test_validate_multi_orbit_r1_vacuous():
    emb = F81.subfield(9)
    xi = next(x for x in F81.iter_elements()
              if not x.is_zero() and not emb.contains(x))
    ok, report = validate_multi_orbit(F81, 3, 2, [F81.one()], xi)
    assert ok and report == []
    with pytest.raises(SubspaceError):  # xi must lie outside F_{q^k}
        validate_multi_orbit(F81, 3, 2, [F81.one()], emb.generator)


def test_validate_multi_orbit_valid_pair():
    f = field_create(5, 4)
    emb = f.subfield(25)
    w = emb.generator
    b = next(c for c in emb.elements() if f.is_irreducible_quadratic(c, w, 25))
    xi = next(t for t in f.iter_elements()
              if not t.is_zero() and (t * t + b * t + w).is_zero())
    ok, report = validate_multi_orbit(f, 5, 2, [f.one(), w], xi)
    assert ok, report


def test_validate_multi_orbit_wrong_extension_rejected():
    f = field_create(3, 4)
    with pytest.raises(SubspaceError):
        validate_multi_orbit(f, 3, 3, [f.one()], f.from_idx(1))


def test_construct_g_q3(pipeline_q3):
    code, _, _, _ = pipeline_q3
    assert len(code.representatives) == 1
    assert code_size(code) == 40
    assert code.min_distance == 2


def test_construct_g_q5(pipeline_q5):
    code, _, _, _ = pipeline_q5
    assert len(code.representatives) == 2
    assert code_size(code) == 2 * 624 // 4
    assert code.orbits_disjoint()


def test_construct_g_q4_single_orbit():
    code = construct_g(4, 2, 1)
    assert len(code.representatives) == 1  # floor(3/2) = 1
    assert code.min_distance == 2


def test_construct_g_rejects_q2():
    with pytest.raises(SubspaceError):
        construct_g(2, 2, 1)


def test_construct_g_rejects_bad_s():
    with pytest.raises(SubspaceError):
        construct_g(3, 2, 2)
    with pytest.raises(SubspaceError, match="s >= 1"):
        construct_g(3, 2, -1)


# ---------------------------------------------------------------------------
# coset representatives and families
# ---------------------------------------------------------------------------

def test_coset_representatives_q3(pipeline_q3):
    code, _, _, _ = pipeline_q3
    U = code.representatives[0]
    reps = [F81.from_idx(a) for a in coset_representatives(U)]
    assert len(reps) == 4  # (3^2 - 1)/2
    units = F81.subfield(3).elements()[1:]
    for d1, d2 in itertools.combinations(reps, 2):
        for lam in units:
            assert sub(d1, lam * d2).idx not in U.span_idx
    for d in reps:
        assert d.idx not in U.span_idx


def test_coset_representatives_hyperplane():
    f16 = field_create(2, 4)
    U = _subspace(f16, [0, 1, 2], 2)
    assert U.dim == 3
    assert len(coset_representatives(U)) == 1


def test_coset_representatives_q2_m6():
    f = field_create(2, 6)
    U = _subspace(f, [0, 1, 2], 2)
    assert U.dim == 3
    assert len(coset_representatives(U)) == 7  # (2^3 - 1)/1


def _random_subspace(p, e, q, dim, seed):
    f = field_create(p, e)
    rng = random.Random(seed)
    while True:
        U = _subspace(f, rng.sample(range(f.N), dim), q)
        if U.dim == dim:
            return U


@pytest.mark.parametrize("case", ["q3k2", "q5k2", "q2m6", "random"])
def test_coset_representatives_match_greedy_oracle(case, pipeline_q3,
                                                   pipeline_q5):
    spaces = {
        "q3k2": lambda: pipeline_q3[0].representatives,
        "q5k2": lambda: pipeline_q5[0].representatives,
        "q2m6": lambda: [canonical_sidon_f64()],
        "random": lambda: [_random_subspace(3, 4, 3, 2, 5),
                           _random_subspace(3, 4, 9, 1, 6),
                           _random_subspace(2, 6, 2, 2, 7)],
    }[case]()
    for U in spaces:
        assert coset_representatives(U) == greedy_coset_representatives(U)


def _family_codes(case):
    if case in ("q3k2", "q5k2"):
        return [construct_g(3 if case == "q3k2" else 5, 2, 1)]
    if case == "sidon_f64":
        U = canonical_sidon_f64()
        return [CyclicSubspaceCode(U.field, 2, (U,))]
    return [CyclicSubspaceCode(U.field, U.ground_q, (U,)) for U in (
        _random_subspace(3, 4, 3, 2, 5), _random_subspace(3, 4, 9, 1, 6),
        _random_subspace(2, 6, 2, 2, 7))]


FAMILY_CASES = ["q3k2", "q5k2", "sidon_f64", "random"]


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_coset_family_matches_field_oracle(case):
    for code in _family_codes(case):
        fam, oracle = build_coset_family(code), field_coset_family(code)
        assert fam.cosets == oracle.cosets
        # t = (q^(m-k) - 1)/(q - 1) cosets per representative
        q, k = code.ground_q, code.dim
        t = (code.field.order // q ** k - 1) // (q - 1)
        assert len(fam.cosets) == len(code.representatives) * t


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_coset_family_scalings_partition_nonzero_field(case):
    # U^* and lam*(U + d) for every representative d and lam in F_q^* are
    # pairwise disjoint and cover F^* exactly
    for code in _family_codes(case):
        f, q = code.field, code.ground_q
        units = [lam.idx for lam in f.subfield(q).elements()[1:]]
        fam = build_coset_family(code)
        # the cosets come grouped by representative, t to a group
        t = len(fam.cosets) // len(code.representatives)
        for i, U in enumerate(code.representatives):
            marked = [x for x in U.span_idx if x >= 0]
            marked += [(x + s) % f.N for coset in fam.cosets[i * t:(i + 1) * t]
                       for x in coset for s in units]
            assert sorted(marked) == list(range(f.N))


def test_coset_family_q3(pipeline_q3):
    code, _, _, _ = pipeline_q3
    fam = build_coset_family(code)
    assert len(fam.cosets) == 4
    for coset in fam.cosets:
        # W^* as log indices: nine nonzero elements, no -1
        assert type(coset) is frozenset and len(coset) == 9
        assert all(type(x) is int and 0 <= x < 80 for x in coset)
    # distinct cosets of the same subspace are disjoint
    for c1, c2 in itertools.combinations(fam.cosets, 2):
        assert not c1 & c2


def test_scaled_pair_orbits_are_not_disjoint():
    U = _subspace(F81, [0, 1], 3)
    code = CyclicSubspaceCode(F81, 3, (U, scaled(U, 5)))
    assert not code.orbits_disjoint()
    with pytest.raises(SubspaceError):
        build_coset_family(code)


def test_coset_family_q5_count(pipeline_q5):
    code, _, _, _ = pipeline_q5
    fam = build_coset_family(code)
    assert len(fam.cosets) == 12  # 2 * (25-1)/4


def test_proposition_intersection_bounds(pipeline_q3):
    # |V ∩ alpha V| <= q^(k - d/2) for alpha outside {0,1}, and
    # |V1 ∩ alpha V2| <= q^(k - d/2) for distinct cosets and alpha != 0
    code, _, _, _ = pipeline_q3
    fam = build_coset_family(code)
    bound = 3 ** (2 - code.min_distance // 2)
    csets = fam.cosets
    for a in range(80):
        for i, ci in enumerate(csets):
            shifted = [frozenset((x + a) % 80 for x in c) for c in csets]
            if a != 0:
                assert len(ci & shifted[i]) <= bound
            for j in range(len(csets)):
                if j != i:
                    assert len(ci & shifted[j]) <= bound


def test_sphere_packing_orbit_bound(pipeline_q3, pipeline_q5):
    # r <= (q-1) * qbin(m, k-d/2+1) / ((q^m-1) * qbin(k, k-d/2+1)),
    # exact rationals; the (q-1) factor accounts for full-length orbits
    # of size (q^m-1)/(q-1)
    for code, _, _, _ in (pipeline_q3, pipeline_q5):
        q = code.ground_q
        m = code.field.e  # prime q here, so m = e
        k, d = code.dim, code.min_distance
        t = k - d // 2 + 1
        bound = Fraction((q - 1) * gaussian_binomial(m, t, q),
                         (q ** m - 1) * gaussian_binomial(k, t, q))
        assert Fraction(len(code.representatives)) <= bound
