"""Subspaces, Sidon certification, orbits, constructions, coset families.

The Sidon, multi-Sidon and orbit checks are the pair-loop helpers in
conftest; the library's own sweep is code_min_distance.
"""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oocgen import (CosetFamily, CyclicSubspaceCode, Subspace, SubspaceError,
                    VerificationError, build_coset_family, build_ooc,
                    code_min_distance, construct_g, construct_w,
                    coset_representatives, field_create)
from oocgen import ooc, s_of_w, subspaces, verify_oos
from oocgen.cli import main
from conftest import (canonical_sidon_f64, code_size, combinations_set,
                      coset_word_ok, field_coset_family, gaussian_binomial,
                      greedy_coset_representatives, is_multi_sidon,
                      is_sidon, log_minus_one, log_of, norm_conditions,
                      orbit_size, orbit_words_cover_once, neg,
                      pair_difference_counts, rank_dim_intersection, scaled,
                      span_set, stack_calls, strictly_increasing, sub,
                      w_and_xi)


F81 = field_create(3, 4)
F9_STRIDE = F81.subfield_stride(9)  # F_9^* is the multiples of 10

# (q, field): F_81 over F_3 and F_9, F_16 over F_2, F_64 over F_2 and F_4
STABILISER_FIELDS = [(q, field_create(p, e)) for p, e, q in
                     [(3, 4, 3), (3, 4, 9), (2, 4, 2), (2, 6, 2), (2, 6, 4)]]


# ---------------------------------------------------------------------------
# span: a basis and F_q^*-classes
# ---------------------------------------------------------------------------

def _span_of(U):
    """U's span as log indices, zero (-1) included, from its classes."""
    return {-1, *subspaces._nonzero(U)}


def test_span_empty():
    U = Subspace(F81, 3, [])
    assert U.dim == 0 and U.classes == ()
    assert _span_of(U) == span_set(U) == {-1}


def test_span_two_independent():
    U = Subspace(F81, 3, [0, 1])
    assert U.dim == 2
    assert len(U.classes) == 4  # (3^2 - 1)/(3 - 1)
    # oracle: enumerate all 9 F_3-combinations a * 1 + b * omega directly
    combos = {F81.add(F81.mul(log_of(F81, a), 0),
                      F81.mul(log_of(F81, b), 1))
              for a in range(3) for b in range(3)}
    assert combos == _span_of(U) == span_set(U)


def test_span_reduces_dependent_input():
    two = F81.add(0, 0)
    U = Subspace(F81, 3, [0, two])
    assert U.dim == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(STABILISER_FIELDS + [(5, field_create(5, 3))]),
       st.data())
def test_span_classes_match_the_combination_oracle(qf, data):
    # the classes expand to every F_q-combination of the basis, one class
    # per projective point; the basis is the input with each element
    # already in the span of those before it left out
    q, f = qf
    m = next(m for m in range(1, f.e + 1) if q ** m == f.order)
    indices = data.draw(st.lists(st.integers(-1, f.N - 1), max_size=m + 1))
    U = Subspace(f, q, indices)
    assert _span_of(U) == span_set(U)
    assert len(U.classes) == (q ** U.dim - 1) // (q - 1)
    assert strictly_increasing(U.classes)
    assert all(0 <= r < f.N // (q - 1) for r in U.classes)
    basis = []
    for el in indices:
        if el not in combinations_set(f, q, basis):
            basis.append(el)
    assert U.basis == tuple(basis)


# ---------------------------------------------------------------------------
# intersections, ground fields and subspace sizes
# ---------------------------------------------------------------------------

# rank_dim_intersection is the reference in the distance sweep's test
# below; it must agree with the intersection of the spans' combinations

def _span_dim_intersection(U, V):
    dims = {U.ground_q ** d: d for d in range(U.dim + 1)}
    return dims[len(span_set(U) & span_set(V))]


def test_dim_intersection_subfield_vs_scaled():
    U = Subspace(F81, 3, range(0, 80, F9_STRIDE))
    V = scaled(U, 1)
    assert _span_dim_intersection(U, V) == rank_dim_intersection(U, V)


def test_dim_intersection_random_vs_rank_oracle():
    rng = random.Random(3)
    for _ in range(40):
        U = Subspace(F81, 3, rng.sample(range(80), 2))
        V = Subspace(F81, 3, rng.sample(range(80), 2))
        assert _span_dim_intersection(U, V) == rank_dim_intersection(U, V)


def test_mismatched_fields_rejected():
    f16 = field_create(2, 4)
    U = Subspace(F81, 3, [0])
    V = Subspace(f16, 2, [0])
    with pytest.raises(SubspaceError, match="different ambient fields"):
        CyclicSubspaceCode(F81, 3, (U, V))
    # the same dimension over F_9 and over F_3
    W = Subspace(F81, 9, [0])
    with pytest.raises(SubspaceError, match="ground fields F_3 and F_9"):
        CyclicSubspaceCode(F81, 3, (U, W))
    with pytest.raises(SubspaceError, match="ground fields F_9 and F_3"):
        CyclicSubspaceCode(F81, 9, (W, U))


# ---------------------------------------------------------------------------
# Sidon and multi-Sidon certification
# ---------------------------------------------------------------------------

def test_one_dimensional_is_sidon():
    ok, wit = is_sidon(Subspace(F81, 3, [7]))
    assert ok and wit is None


def test_subfield_is_not_sidon():
    U = Subspace(F81, 3, range(0, 80, F9_STRIDE))
    ok, wit = is_sidon(U)
    assert not ok
    # witness lies in F_9 \ F_3, where alpha*U = U
    assert wit % F9_STRIDE == 0
    assert wit % F81.subfield_stride(3) != 0


def test_construction_space_is_sidon(pipeline_q3):
    code, _, _, _ = pipeline_q3
    ok, _ = is_sidon(code.representatives[0])
    assert ok


def test_multi_sidon_singleton(pipeline_q3):
    code, _, _, _ = pipeline_q3
    ok, wit = is_multi_sidon([code.representatives[0]])
    assert ok and wit is None


def test_multi_sidon_rejects_proportional_pair():
    U = Subspace(F81, 3, [0, 1])
    V = scaled(U, 1)
    ok, wit = is_multi_sidon([U, V])
    assert not ok
    i, j, alpha = wit
    spaces = [U, V]
    # the witness exhibits an overlap of dimension >= 2
    overlap = span_set(spaces[i]) & span_set(scaled(spaces[j], alpha))
    assert len(overlap) >= 9


def test_multi_sidon_construction(pipeline_q5):
    code, _, _, _ = pipeline_q5
    ok, wit = is_multi_sidon(list(code.representatives))
    assert ok, wit


def test_multi_sidon_rejects_duplicates():
    U = Subspace(F81, 3, [0, 1])
    with pytest.raises(SubspaceError):
        is_multi_sidon([U, U])


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_of_whole_field():
    U = Subspace(F81, 3, range(80))
    assert U.dim == 4
    assert orbit_size(U) == 1


def test_orbit_of_subfield():
    U = Subspace(F81, 3, range(0, 80, F9_STRIDE))
    assert orbit_size(U) == 80 // 8  # stabilizer F_9^*


def test_orbit_of_sidon_space_is_full_length(pipeline_q3):
    code, _, _, _ = pipeline_q3
    U = code.representatives[0]
    assert orbit_size(U) == 80 // 2
    # omega^a U for a < orbit_size(U) are distinct; omega^40 U = U
    assert len({span_set(scaled(U, a)) for a in range(40)}) == 40
    assert span_set(scaled(U, 40)) == span_set(U)


def test_orbit_size_formula():
    # orbit size is (q^m-1)/(q^t-1) for some t | m
    rng = random.Random(9)
    for _ in range(15):
        U = Subspace(F81, 3, rng.sample(range(80), 2))
        size = orbit_size(U)
        assert any(size == 80 // (3 ** t - 1)
                   for t in (1, 2, 4) if 80 % (3 ** t - 1) == 0)


@st.composite
def _equal_dim_subspaces(draw):
    """One to three F_q-subspaces of one dimension.  Each spans a random
    F_{q^d}-subspace of the field for a d that divides the dimension, so
    d > 1 gives a short orbit, stabilised by F_{q^d}^* at least."""
    q, f = draw(st.sampled_from(STABILISER_FIELDS))
    m = next(m for m in range(1, f.e + 1) if q ** m == f.order)
    dim = draw(st.integers(1, m - 1))
    reps = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from([d for d in range(1, dim + 1)
                                  if dim % d == 0 and m % d == 0]))
        stride = f.subfield_stride(q ** d)
        heads = draw(st.lists(st.integers(0, f.N - 1), min_size=dim // d,
                              max_size=dim // d))
        U = Subspace(f, q, [(b + stride * g) % f.N
                            for b in heads for g in range(d)])
        if U.dim == dim:
            reps.append(U)
    assume(reps)
    return reps


@settings(max_examples=60, deadline=None)
@given(_equal_dim_subspaces())
def test_stabiliser_orders_match_orbit_size_oracle(reps):
    # the stabiliser of U is read off the distance sweep's diagonal, the a
    # with |U ∩ omega^a U| = |U|; the pair loop counts the same a
    f = reps[0].field
    code = CyclicSubspaceCode(f, reps[0].ground_q, reps)
    assert code.stabiliser_orders == tuple(f.N // orbit_size(U)
                                           for U in reps)


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def test_code_min_distance_vs_full_pair_sweep():
    # one orbit of U = F_4 inside F_16 over F_2, checked against the
    # exhaustive all-pairs oracle
    f16 = field_create(2, 4)
    U = Subspace(f16, 2, range(0, 15, f16.subfield_stride(4)))
    code = CyclicSubspaceCode(f16, 2, (U,))
    orb = {span_set(V): V for V in (scaled(U, a) for a in range(f16.N))}
    orb = list(orb.values())
    assert len(orb) == orbit_size(U)
    oracle = min(
        V1.dim + V2.dim - 2 * rank_dim_intersection(V1, V2)
        for V1, V2 in itertools.combinations(orb, 2))
    assert code_min_distance(code) == oracle == 4


@settings(max_examples=60, deadline=None)
@given(_equal_dim_subspaces())
def test_code_min_distance_vs_pair_loop_on_multi_orbit_codes(reps):
    # one to three orbits over F_2, F_3, F_4 and F_9, short ones included:
    # |U_i ∩ omega^a U_j| = 1 + the pair loop's count on the span members
    # in Z_N, i <= j, leaving out each U_i's own stabiliser, the a where
    # the count is all of U_i^*
    f, q, k = reps[0].field, reps[0].ground_q, reps[0].dim
    dims = {q ** e: e for e in range(k + 1)}
    S = [[x for x in span_set(U) if x >= 0] for U in reps]
    most = max(dims[1 + v]
               for i, j in itertools.combinations_with_replacement(
                   range(len(reps)), 2)
               for v in pair_difference_counts(S[i], S[j], f.N)
               if i != j or v < q ** k - 1)
    code = CyclicSubspaceCode(f, q, reps)
    assert code_min_distance(code) == 2 * k - 2 * most


def test_code_min_distance_counts_each_orbit_pair_once(monkeypatch,
                                                       pipeline_q3,
                                                       pipeline_q5):
    # one stack counts and pushes each of the r representatives once:
    # U_j's count holds the blocks i <= j, r(r + 1)/2 orbit pairs in all
    calls = stack_calls(monkeypatch, subspaces)
    for code in (pipeline_q3[0], pipeline_q5[0]):
        d = code.min_distance
        calls.clear()
        assert code_min_distance(code) == d
        r = len(code.representatives)
        assert calls == [[r, r]]  # r = 1, then r = 2


def test_construct_sweeps_orbit_pairs_once(monkeypatch):
    # the distance is counted once per code: build_ooc and the coset
    # family's disjointness check read it, and verify_oos counts words 0
    # and 1, which fix the report
    calls = stack_calls(monkeypatch, subspaces, ooc)
    code = construct_g(7, 2, 1)
    _, params, _ = build_ooc(code)
    # r = 3 orbits; the orbit proof holds, so of r * t = 24 words the
    # sweep counts words 0 and 1: word 0 reaches lam alone, (0, 1) with it
    assert calls == [[3, 3], [2, 2]]
    assert params.lam == 7 ** (2 - code.min_distance // 2)
    assert code.orbits_disjoint() and calls == [[3, 3], [2, 2]]


def test_construct_sweeps_every_word_when_the_orbit_proof_fails(
        monkeypatch):
    # the last word replaced by the F_7-multiple omega^g X_22 of the word
    # before it: still a coset of its orbit's subspace, so check (a) holds,
    # but (b) fails, and X_22 meets it in all w = 49 members.  That excess
    # sits in the last column, which a sweep of words 0 and 1 never
    # reaches: their report holds lam in both maxima, so the proof runs,
    # fails, and every word is swept
    code = construct_g(7, 2, 1)
    words = list(build_coset_family(code).cosets)
    N, g = code.field.N, code.field.subfield_stride(7)
    words[-1] = tuple(sorted((x + g) % N for x in words[-2]))
    monkeypatch.setattr(subspaces, "build_coset_family",
                        lambda code: CosetFamily(tuple(words)))
    calls = stack_calls(monkeypatch, ooc)
    with pytest.raises(VerificationError) as exc:
        build_ooc(code)
    assert calls == [[2, 2], [24, 24]]
    report = exc.value.report
    assert report.max_cross == 49 and report.witnesses[1]["words"] == [22, 23]
    sets = [s_of_w(code.field, W) for W in words]
    assert verify_oos(sets[:2], 7).passed  # words 0 and 1 would miss it


def test_verify_sweeps_every_word(monkeypatch, tmp_path, capsys):
    # verify reads words without orbits, so it sweeps every word; its
    # report is construct's, taken from words 0 and 1
    out = tmp_path / "q7"
    assert main(["construct", "--q", "7", "--k", "2", "--s", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    calls = stack_calls(monkeypatch, ooc)
    assert main(["verify", f"{out}.ooc"]) == 0
    assert calls == [[24, 24]]
    report = json.loads((tmp_path / "q7.report.json").read_text())
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"


def test_min_distance_single_subspace_rejected():
    U = Subspace(F81, 3, range(80))
    with pytest.raises(SubspaceError, match="undefined"):
        code_min_distance(CyclicSubspaceCode(F81, 3, (U,)))
    # omega^0..omega^7 span, not list: the span is F_3-closed by
    # construction, here the whole field, so its one orbit has no distance
    V = Subspace(F81, 3, range(8))
    S = _span_of(V)
    assert V.dim == 4 and len(V.classes) == 40 and S == span_set(V)
    units = range(0, 80, F81.subfield_stride(3))
    assert all(F81.add(x, F81.mul(lam, y)) in S
               for x in S for y in S for lam in units)
    with pytest.raises(SubspaceError, match="undefined"):
        code_min_distance(CyclicSubspaceCode(F81, 3, (V,)))


def test_bad_norm_pair_lowers_distance():
    # mus with equal relative norms violate Theorem-style conditions and the
    # two-orbit code collapses below distance 2k - 2
    f = field_create(5, 4)
    w, xi = w_and_xi(f, 5, 2)
    mus = [0, 4 * w]  # norm(w)^4 = norm(w^4) since norm(w) has order 4
    ok, report = norm_conditions(f, 5, 2, mus, xi)
    assert not ok
    assert report[0]["condition"] == "equal norms"
    U1 = construct_w(f, 5, 2, 1, mus[0], xi)
    U2 = construct_w(f, 5, 2, 1, mus[1], xi)
    assert span_set(U1) != span_set(U2)
    code = CyclicSubspaceCode(f, 5, (U1, U2))
    assert (not code.orbits_disjoint()
            or code_min_distance(code) < 2)


# ---------------------------------------------------------------------------
# explicit constructions
# ---------------------------------------------------------------------------

def _xi_outside_f9(*skip):
    """The first log index outside F_9 and not in skip."""
    return next(x for x in range(80) if x % F9_STRIDE and x not in skip)


def test_construct_w_mu_zero_gives_subfield():
    xi = _xi_outside_f9()
    U = construct_w(F81, 3, 2, 1, -1, xi)
    assert span_set(U) == span_set(Subspace(F81, 3, range(0, 80, F9_STRIDE)))


def test_construct_w_gcd_degenerate_not_sidon():
    # s = 2 with k = 2: x^(q^s) = x on F_9, so W is a scalar multiple of F_9
    xi = _xi_outside_f9(neg(F81, 0))  # 1 + xi != 0
    U = construct_w(F81, 3, 2, 2, 0, xi)
    subfield = Subspace(F81, 3, range(0, 80, F9_STRIDE))
    assert span_set(U) == span_set(scaled(subfield, F81.add(0, xi)))
    ok, wit = is_sidon(U)
    assert not ok and wit is not None


def test_construct_w_basis_is_what_span_picks():
    # images of 1, g, ..., g^(k-1) under x -> x + xi mu x^(q^s)
    xi = _xi_outside_f9()
    checked = 0
    for mu in range(0, 80, F9_STRIDE):
        try:
            U = construct_w(F81, 3, 2, 1, mu, xi)
        except SubspaceError:
            continue
        # x^3 is the index 3x; the image of zero is zero, which spans nothing
        images = [F81.add(x, F81.mul(F81.mul(xi, mu), 3 * x % 80))
                  for x in range(0, 80, F9_STRIDE)]
        V = Subspace(F81, 3, images)
        assert U.basis == V.basis and U.classes == V.classes
        checked += 1
    assert checked


def test_construct_w_valid_is_sidon():
    for xi in range(80):
        if xi % F9_STRIDE == 0:
            continue
        try:
            U = construct_w(F81, 3, 2, 1, 0, xi)
        except SubspaceError:
            continue
        if is_sidon(U)[0]:
            assert U.dim == 2
            return
    pytest.fail("no Sidon space produced")


def test_norm_conditions_valid_pair():
    f = field_create(5, 4)
    w, xi = w_and_xi(f, 5, 2)
    ok, report = norm_conditions(f, 5, 2, [0, w], xi)
    assert ok, report


@pytest.mark.parametrize("q,k", [(3, 2), (4, 2), (5, 2), (7, 2), (8, 2),
                                 (9, 2), (3, 3), (4, 3), (5, 3), (3, 4)])
def test_construct_g_meets_the_theorem(q, k):
    # the conclusion the norm conditions guarantee: floor((q-1)/2)
    # full-length orbits at distance 2k - 2, built from w^i and xi that
    # satisfy them
    code = construct_g(q, k, 1)
    f, r = code.field, (q - 1) // 2
    assert len(code.representatives) == r
    assert code.min_distance == 2 * k - 2
    assert code.stabiliser_orders == (q - 1,) * r
    # w_and_xi, the oracle, scans all of range(N) for xi; construct_g scans
    # only log xi = 1 mod q^k - 1, where both roots lie, and must find the
    # same one.  construct_w's first basis element is log(1 + xi mu), so
    # at mu = 0 equal bases fix xi
    w, xi = w_and_xi(f, q, k)
    assert xi % (q ** k - 1) == 1
    mus = [w * i % f.N for i in range(r)]
    assert [U.basis for U in code.representatives] == [
        construct_w(f, q, k, 1, mu, xi).basis for mu in mus]
    ok, report = norm_conditions(f, q, k, mus, xi)
    assert ok, report


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
    units, S = range(0, 80, F81.subfield_stride(3)), span_set(U)
    for d1, d2 in itertools.combinations(reps, 2):
        for lam in units:
            assert sub(F81, d1, F81.mul(lam, d2)) not in S
    for d in reps:
        assert d not in S


def test_coset_representatives_refuses_the_whole_field():
    U = Subspace(F81, 3, range(80))
    assert len(span_set(U)) == 81
    with pytest.raises(SubspaceError, match="U must be a proper subspace"):
        coset_representatives(U)


def test_coset_representatives_hyperplane():
    f16 = field_create(2, 4)
    U = Subspace(f16, 2, [0, 1, 2])
    assert U.dim == 3
    assert len(coset_representatives(U)) == 1


def test_coset_representatives_q2_m6():
    f = field_create(2, 6)
    U = Subspace(f, 2, [0, 1, 2])
    assert U.dim == 3
    assert len(coset_representatives(U)) == 7  # (2^3 - 1)/1


def _random_subspace(p, e, q, dim, seed):
    f = field_create(p, e)
    rng = random.Random(seed)
    while True:
        U = Subspace(f, q, rng.sample(range(f.N), dim))
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
        assert [frozenset(c) for c in fam.cosets] == list(oracle.cosets)
        assert all(strictly_increasing(c) for c in fam.cosets)
        # t = (q^(m-k) - 1)/(q - 1) cosets per representative
        q, k = code.ground_q, code.dim
        t = (code.field.order // q ** k - 1) // (q - 1)
        assert len(fam.cosets) == len(code.representatives) * t


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_coset_family_scalings_partition_nonzero_field(case):
    # U^* and lam*(U + d) for every representative d and lam in F_q^* are
    # pairwise disjoint and cover F^* exactly
    for code in _family_codes(case):
        fam = build_coset_family(code)
        # the cosets come grouped by representative, t to a group
        t = len(fam.cosets) // len(code.representatives)
        for i, U in enumerate(code.representatives):
            assert orbit_words_cover_once(U, fam.cosets[i * t:(i + 1) * t])


G_CODES = [(3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (3, 3), (4, 3)]


@functools.cache
def _orbits(case):
    """construct_g(q, k, 1) for case (q, k), or the one-orbit F_2 code of
    canonical_sidon_f64 for "sidon_f64", and each representative with its
    t family words, in family order."""
    code = (_family_codes(case)[0] if case == "sidon_f64"
            else construct_g(*case, 1))
    words = build_coset_family(code).cosets
    t = len(words) // len(code.representatives)
    return code, [(U, words[i * t:(i + 1) * t])
                  for i, U in enumerate(code.representatives)]


@pytest.mark.parametrize("case", G_CODES + ["sidon_f64"],
                         ids=lambda c: "%s-%s" % c if c in G_CODES else c)
def test_coset_representatives_lead_their_family_words(case):
    # the scan's next representative is the least unmarked residue modulo
    # g = N/(q - 1), and every member of its coset lies in an unmarked
    # class, so it is below g and its coset's least member; over F_2, g = N
    code, orbits = _orbits(case)
    g = code.field.N // (code.ground_q - 1)
    for U, words in orbits:
        reps = coset_representatives(U)
        assert reps == [W[0] for W in words]
        assert reps == greedy_coset_representatives(U)
        assert all(a < g for a in reps)


@pytest.mark.parametrize("q,k", G_CODES)
def test_orbit_checks_agree_with_the_word_sweep(q, k):
    # checks (a) and (b) with the orbit sweep bound every word correlation
    # by lambda; verify_oos sweeps every word pair: both verdicts pass, and
    # so does the library's own proof
    code, orbits = _orbits((q, k))
    f = code.field
    neg1 = log_minus_one(f)
    for U, words in orbits:
        assert all(coset_word_ok(U, W, neg1) for W in words)
        assert orbit_words_cover_once(U, words)
    assert subspaces._orbit_proof(code, build_coset_family(code).cosets)
    lam = q ** (k - code.min_distance // 2)
    sets = [s_of_w(f, W) for _, words in orbits for W in words]
    assert verify_oos(sets, lam).passed
    # one member moved off its coset fails (a); a second copy of one word
    # in place of another is still a coset but covers twice, failing (b)
    U, words = orbits[0]
    W = words[0]
    off = next(x for x in range(f.N) if x not in W)
    assert not coset_word_ok(U, tuple(sorted(W[:-1] + (off,))), neg1)
    copied = (words[1],) + words[1:]
    assert all(coset_word_ok(U, V, neg1) for V in copied)
    assert not orbit_words_cover_once(U, copied)
    # log(-1) shifted by the log of a unit g != 1 of F_q takes y - g x0 for
    # y - x0, and y - g x0 = (1 - g) x0 + u lies outside U for x0 outside U,
    # so (a) fails at every word
    wrong = (neg1 + f.subfield_stride(q)) % f.N
    assert not any(coset_word_ok(U, V, wrong) for V in words)


@pytest.mark.parametrize("q,k", [(5, 2), (7, 2), (5, 3)])
def test_orbit_proof_fails_on_each_corrupted_family(q, k):
    # the first four corruptions each break exactly one of the oracle
    # checks (a) and (b), so the proof must make both.  The last two keep
    # every word's length q^k, so (b)'s count holds; a copy of another
    # member passes the class lookup, and a copy of x0 has no difference
    # (its Zech entry is -1), so its lookup reads an unrelated class.  Only
    # (b)'s unmarked test is sure to catch them
    code, orbits = _orbits((q, k))
    words = build_coset_family(code).cosets
    f, (U, block), t = code.field, orbits[-1], len(orbits[-1][1])
    N, g, neg1 = f.N, f.subfield_stride(q), log_minus_one(f)
    assert subspaces._orbit_proof(code, words)

    def last(word):  # the family with its last word replaced
        return words[:-1] + (tuple(sorted(word)),)

    # one member moved to its F_q-multiple omega^g y: its class, so (b)
    # holds, but the word is no longer a coset, so (a) fails
    W = block[-1]
    moved = last(W[:-1] + ((W[-1] + g) % N,))
    assert orbit_words_cover_once(U, moved[-t:])
    assert not coset_word_ok(U, moved[-1], neg1)
    # an F_q-multiple of another word of the orbit: a coset of U, so (a)
    # holds, but its classes are that word's, so (b) fails
    multiple = last((x + g) % N for x in block[0])
    assert coset_word_ok(U, multiple[-1], neg1)
    assert not orbit_words_cover_once(U, multiple[-t:])
    # the first two orbits' blocks swapped: every word is checked against
    # the other orbit's subspace
    swapped = words[t:2 * t] + words[:t] + words[2 * t:]
    # each block given one word more, an F_q-multiple of its first: every
    # word is a coset and no residue is left unmarked, but the first
    # word's classes are marked twice, so (b) fails on its count
    def grown(block):
        return block + (tuple(sorted((x + g) % N for x in block[0])),)

    assert coset_word_ok(U, grown(block)[-1], neg1)
    assert not orbit_words_cover_once(U, grown(block))
    longer = sum((grown(words[i:i + t]) for i in range(0, len(words), t)), ())
    # one member replaced by a copy of another member of its word, or by a
    # copy of x0: the word repeats a member and leaves a residue unmarked
    repeated = last(W[:-1] + (W[1],))
    x0_copy = last(W[:-1] + (W[0],))
    for V in (repeated, x0_copy):
        assert len(V[-1]) == q ** k
        assert not coset_word_ok(U, V[-1], neg1)
        assert not orbit_words_cover_once(U, V[-t:])
    for family in (moved, multiple, swapped, longer, repeated, x0_copy):
        assert not subspaces._orbit_proof(code, family)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(5, 2), (7, 2)]), st.data())
def test_orbit_proof_agrees_with_the_oracle_checks(qk, data):
    # one member of one word moved to any residue, to a copy of another
    # member, or within its own F_q^*-class (itself included): the proof
    # holds exactly when every orbit passes the oracle checks (a) and (b)
    code, orbits = _orbits(qk)
    N, g = code.field.N, code.field.subfield_stride(qk[0])
    words = list(build_coset_family(code).cosets)
    i = data.draw(st.integers(0, len(words) - 1))
    W = words[i]
    j = data.draw(st.integers(0, len(W) - 1))
    y = data.draw(st.one_of(st.integers(0, N - 1), st.sampled_from(W),
                            st.sampled_from(range(W[j] % g, N, g))))
    words[i] = tuple(sorted(W[:j] + (y,) + W[j + 1:]))
    t, neg1 = len(orbits[0][1]), log_minus_one(code.field)
    blocks = [(U, words[a * t:(a + 1) * t]) for a, (U, _) in enumerate(orbits)]
    oracle = all(all(coset_word_ok(U, V, neg1) for V in block)
                 and orbit_words_cover_once(U, block) for U, block in blocks)
    assert subspaces._orbit_proof(code, tuple(words)) == oracle


def test_coset_family_q3(pipeline_q3):
    code, _, _, _ = pipeline_q3
    fam = build_coset_family(code)
    assert len(fam.cosets) == 4
    for coset in fam.cosets:
        # W^* as log indices: nine nonzero elements, no -1
        assert strictly_increasing(coset) and len(coset) == 9
        assert all(type(x) is int and 0 <= x < 80 for x in coset)
    # distinct cosets of the same subspace are disjoint
    for c1, c2 in itertools.combinations(fam.cosets, 2):
        assert not set(c1) & set(c2)


def test_scaled_pair_orbits_are_not_disjoint():
    U = Subspace(F81, 3, [0, 1])
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
    assert all(strictly_increasing(c) for c in fam.cosets)
    csets = [frozenset(c) for c in fam.cosets]
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
