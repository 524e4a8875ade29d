"""Subspaces, Sidon certification, orbits, constructions, coset families."""

import itertools
import random
from fractions import Fraction

import pytest

from oocgen import (CyclicSubspaceCode, SubspaceError, build_coset_family,
                    code_min_distance, construct_g, construct_w,
                    coset_representatives, dim_intersection, field_create,
                    gaussian_binomial, is_multi_sidon, is_sidon, orbit,
                    orbit_size, span, subspace_distance, validate_multi_orbit)
from oocgen import subspaces
from oocgen.subspaces import Subspace, _log_exact
from conftest import (canonical_sidon_f64, field_coset_family,
                      greedy_coset_representatives, rank_dim_intersection)


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
    U = span(F81, [F81.one(), F81.omega], 3)
    assert U.dim == 2
    assert len(U.span_idx) == 9
    # oracle: enumerate all 9 F_3-combinations directly
    combos = {(F81.from_code(a) * F81.one()
               + F81.from_code(b) * F81.omega).idx
              for a in range(3) for b in range(3)}
    assert combos == U.span_idx


def test_span_reduces_dependent_input():
    two = F81.one() + F81.one()
    U = span(F81, [F81.one(), two], 3)
    assert U.dim == 1


# ---------------------------------------------------------------------------
# intersection and distance
# ---------------------------------------------------------------------------

def test_dim_intersection_self():
    U = _subspace(F81, [0, 1], 3)
    assert dim_intersection(U, U) == U.dim


def test_distinct_lines_meet_in_zero():
    U = _subspace(F81, [0], 3)
    V = _subspace(F81, [1], 3)
    assert dim_intersection(U, V) == 0


def test_dim_intersection_subfield_vs_scaled():
    emb = F81.subfield(9)
    U = span(F81, emb.elements(), 3)
    V = U.scale(F81.omega)
    assert dim_intersection(U, V) == rank_dim_intersection(U, V)


def test_dim_intersection_random_vs_rank_oracle():
    rng = random.Random(3)
    for _ in range(40):
        U = _subspace(F81, rng.sample(range(80), 2), 3)
        V = _subspace(F81, rng.sample(range(80), 2), 3)
        assert dim_intersection(U, V) == rank_dim_intersection(U, V)


def test_log_exact_rejects_non_power():
    assert _log_exact(27, 3) == 3
    with pytest.raises(SubspaceError):
        _log_exact(10, 3)


def _random_dim2(rng):
    while True:
        U = _subspace(F81, rng.sample(range(80), 2), 3)
        if U.dim == 2:
            return U


def test_subspace_distance_properties():
    rng = random.Random(4)
    for _ in range(25):
        U = _random_dim2(rng)
        V = _random_dim2(rng)
        W = _random_dim2(rng)
        duv = subspace_distance(U, V)
        assert duv == subspace_distance(V, U)
        assert duv % 2 == 0
        assert (duv == 0) == (U == V)
        assert duv <= subspace_distance(U, W) + subspace_distance(W, V)


def test_distance_of_disjoint_subspaces():
    U = _subspace(F81, [0, 1], 3)
    found = False
    for i, j in itertools.combinations(range(80), 2):
        V = _subspace(F81, [i, j], 3)
        if V.dim == 2 and len(U.span_idx & V.span_idx) == 1:
            assert subspace_distance(U, V) == 4
            found = True
            break
    assert found


def test_mismatched_fields_rejected():
    f16 = field_create(2, 4)
    U = _subspace(F81, [0], 3)
    V = _subspace(f16, [0], 2)
    with pytest.raises(SubspaceError):
        dim_intersection(U, V)


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
    V = U.scale(F81.omega)
    ok, wit = is_multi_sidon([U, V])
    assert not ok
    i, j, alpha = wit
    spaces = [U, V]
    # the witness exhibits an overlap of dimension >= 2
    assert len(spaces[i].span_idx & spaces[j].scale(alpha).span_idx) >= 9


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
    assert len(orbit(U)) == 1


def test_orbit_of_subfield():
    U = span(F81, F81.subfield(9).elements(), 3)
    assert orbit_size(U) == 80 // 8  # stabilizer F_9^*
    assert len(orbit(U)) == 10


def test_orbit_of_sidon_space_is_full_length(pipeline_q3):
    code, _, _, _ = pipeline_q3
    assert orbit_size(code.representatives[0]) == 80 // 2
    orb = orbit(code.representatives[0])
    assert len(orb) == 40
    assert len({V.span_idx for V in orb}) == 40


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
    orb = {U.scale(f16.from_idx(a)) for a in range(f16.N)}
    assert len(orb) == len(orbit(U)) == orbit_size(U)
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
        calls.clear()
        assert code_min_distance(code) == code.min_distance
        assert calls == [len(code.representatives)]  # r = 1, then r = 2


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
    assert U1 != U2
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
    scaled_subfield = span(F81, emb.elements(), 3).scale(F81.one() + xi)
    assert U == scaled_subfield
    ok, wit = is_sidon(U)
    assert not ok and wit is not None


def test_construct_w_basis_is_what_span_picks():
    # images of 1, g, ..., g^(k-1) under x -> x + xi mu x^(q^s)
    emb = F81.subfield(9)
    xi = next(x for x in F81.iter_elements()
              if not x.is_zero() and not emb.contains(x))
    checked = 0
    for mu in emb.nonzero_elements():
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
        validate_multi_orbit(f, 3, 3, [f.one()], f.omega)


def test_construct_g_q3(pipeline_q3):
    code, _, _, _ = pipeline_q3
    assert len(code.representatives) == 1
    assert code.size == 40
    assert code.min_distance == 2


def test_construct_g_q5(pipeline_q5):
    code, _, _, _ = pipeline_q5
    assert len(code.representatives) == 2
    assert code.size == 2 * 624 // 4
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
    reps = coset_representatives(U)
    assert len(reps) == 4  # (3^2 - 1)/2
    units = F81.subfield(3).nonzero_elements()
    for d1, d2 in itertools.combinations(reps, 2):
        for lam in units:
            assert (d1 - lam * d2).idx not in U.span_idx
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
        assert fam.entries == oracle.entries
        assert fam.cosets == oracle.cosets
        assert fam.t == oracle.t


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_coset_family_scalings_partition_nonzero_field(case):
    # U^* and lam*(U + d) for every representative d and lam in F_q^* are
    # pairwise disjoint and cover F^* exactly
    for code in _family_codes(case):
        f, q = code.field, code.ground_q
        units = [lam.idx for lam in f.subfield(q).nonzero_elements()]
        fam = build_coset_family(code)
        for i, U in enumerate(code.representatives):
            marked = [x for x in U.span_idx if x >= 0]
            for (j, _), coset in zip(fam.entries, fam.cosets):
                if j == i:
                    marked += [(x.idx + s) % f.N for x in coset
                               for s in units]
            assert sorted(marked) == list(range(f.N))


def test_coset_family_q3(pipeline_q3):
    code, _, _, _ = pipeline_q3
    fam = build_coset_family(code)
    assert len(fam) == 4
    for coset in fam.cosets:
        assert len(coset) == 9
        assert all(not x.is_zero() for x in coset)
    # distinct cosets of the same subspace are disjoint
    for c1, c2 in itertools.combinations(fam.cosets, 2):
        assert not set(c1) & set(c2)


def test_scaled_pair_orbits_are_not_disjoint():
    U = _subspace(F81, [0, 1], 3)
    code = CyclicSubspaceCode(F81, 3, (U, U.scale(F81.from_idx(5))))
    assert not code.orbits_disjoint()
    with pytest.raises(SubspaceError):
        build_coset_family(code)


def test_coset_family_q5_count(pipeline_q5):
    code, _, _, _ = pipeline_q5
    fam = build_coset_family(code)
    assert len(fam) == 12  # 2 * (25-1)/4


def test_proposition_intersection_bounds(pipeline_q3):
    # |V ∩ alpha V| <= q^(k - d/2) for alpha outside {0,1}, and
    # |V1 ∩ alpha V2| <= q^(k - d/2) for distinct cosets and alpha != 0
    code, _, _, _ = pipeline_q3
    fam = build_coset_family(code)
    bound = 3 ** (2 - code.min_distance // 2)
    csets = [frozenset(x.idx for x in coset) for coset in fam.cosets]
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
