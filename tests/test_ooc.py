"""Index sets, correlation maxima, field-side conditions, bounds, pipeline."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oocgen
from oocgen import (FieldElement, IndexSet, OocCode, OocError, build_ooc,
                    construct_g, field_create, johnson_bound,
                    optimality_ratio, params_table, s_of_w, verify_oos)
from oocgen import ooc, subspaces
from oocgen.ooc import read_ooc_text, support, unsupport, write_ooc_text
from oocgen.subspaces import _at_least, _column_counts, _peak
from conftest import (bit_corr, bit_level_ooc_ok, bits, check_field_conditions,
                      inverse, pair_difference_counts, pair_verify_oos, shift)


F81 = field_create(3, 4)


# ---------------------------------------------------------------------------
# index sets, the bits file and S(W)
# ---------------------------------------------------------------------------

@st.composite
def _family(draw):
    n = draw(st.integers(1, 24))
    w = draw(st.integers(0, n))
    word = st.frozensets(st.integers(0, n - 1), min_size=w, max_size=w)
    sets = draw(st.lists(word.map(lambda m: IndexSet(n, m)), min_size=1,
                         max_size=5))
    return OocCode(n, w, draw(st.integers(0, w)), tuple(sets))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_family())
def test_bits_file_roundtrip(tmp_path, ooc):
    path = tmp_path / "x.ooc"
    write_ooc_text(ooc, path)
    assert read_ooc_text(path) == (list(ooc.codewords), ooc.lam)
    lines = path.read_text().splitlines()[1:]
    assert lines == ["".join(map(str, bits(X))) for X in ooc.codewords]


def test_support_basic():
    X = IndexSet(4, frozenset({0, 2}))
    assert bits(support(X)) == (1, 0, 1, 0)
    assert support(X).members == {0, 2}
    assert len(support(X).members) == 2


def test_support_unsupport_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        X = IndexSet(12, frozenset(i for i in range(12) if rng.randint(0, 1)))
        assert unsupport(support(X), 12) == X
        assert bits(unsupport(X, 12)) == bits(X)


@pytest.mark.parametrize("n,members", [(0, set()), (5, {1.5}), (5, {-1}),
                                       (True, {0}), (5, {True})])
def test_index_set_rejects_bad_modulus_or_member(n, members):
    with pytest.raises(OocError):
        IndexSet(n, frozenset(members))


def test_unsupport_rejects_out_of_range():
    with pytest.raises(OocError):
        unsupport(IndexSet(10, frozenset({3, 7})), 5)


def test_s_of_w_examples():
    assert s_of_w(F81, [0]).members == {0}
    assert s_of_w(F81, [3, 7]).members == {3, 7}
    # a coset's frozenset of log indices is taken as it is, not copied
    W = frozenset({1, 5, 40})
    assert s_of_w(F81, W).members is W
    # W^* holds no zero: its log index -1 is out of range
    with pytest.raises(OocError):
        s_of_w(F81, [-1, 0, 1])


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

@given(st.sets(st.integers(0, 19)), st.integers(0, 19))
def test_shift_group_action(members, tau):
    X = IndexSet(20, frozenset(members))
    assert shift(X, 0) == X
    assert shift(shift(X, tau), 20 - tau).members == X.members


def test_shift_matches_field_scaling():
    rng = random.Random(6)
    for _ in range(20):
        W = rng.sample(range(80), 6)
        alpha = F81.from_idx(rng.randrange(80))
        scaled = [(alpha * F81.from_idx(i)).idx for i in W]
        assert s_of_w(F81, scaled) == shift(s_of_w(F81, W), alpha.idx)


# ---------------------------------------------------------------------------
# correlation maxima
# ---------------------------------------------------------------------------

# The correlation maxima are read off the kernel's planes directly:
# |X ∩ (X + tau)| for 0 < tau < n from the column of [X], and
# |X ∩ (Y + tau)| for 0 <= tau < n from block 0 of the column [X, Y].

def _auto_peak(X):
    planes, = _column_counts([X.members], X.n)
    return _peak(planes, (1 << X.n) - 2)


def _cross_peak(X, Y):
    _, planes = _column_counts([X.members, Y.members], X.n)
    return _peak(planes, (1 << X.n) - 1)


def test_autocorr_singleton():
    assert _auto_peak(IndexSet(8, frozenset({3})))[0] == 0


def test_autocorr_full_set():
    v, _ = _auto_peak(IndexSet(6, frozenset(range(6))))
    assert v == 6


def test_autocorr_example_z4():
    v, tau = _auto_peak(IndexSet(4, frozenset({0, 1})))
    assert v == 1 and tau == 1
    report = verify_oos([IndexSet(4, frozenset({0, 1}))], 1)
    assert report.witnesses == [{"kind": "auto", "word": 0, "tau": 1,
                                 "value": 1}]


def test_crosscorr_singletons():
    v, tau = _cross_peak(IndexSet(2, frozenset({0})),
                           IndexSet(2, frozenset({1})))
    assert v == 1


def test_crosscorr_example_z5_vs_bit_oracle():
    X, Y = IndexSet(5, frozenset({0, 1})), IndexSet(5, frozenset({0, 2}))
    xb, yb = bits(X), bits(Y)
    oracle = max(bit_corr(xb, yb, tau) for tau in range(5))
    assert _cross_peak(X, Y)[0] == oracle
    assert verify_oos([X, Y], 2).max_cross == oracle


def test_crosscorr_symmetric():
    rng = random.Random(8)
    for _ in range(20):
        X = IndexSet(17, frozenset(rng.sample(range(17), 4)))
        Y = IndexSet(17, frozenset(rng.sample(range(17), 4)))
        if X.members == Y.members:
            continue
        assert _cross_peak(X, Y)[0] == _cross_peak(Y, X)[0]


def test_crosscorr_of_equal_sets_is_weight_at_zero():
    X = IndexSet(5, frozenset({1, 2}))
    assert _cross_peak(X, IndexSet(5, frozenset({1, 2}))) == (2, 0)


@st.composite
def _set_pair(draw):
    n = draw(st.integers(1, 24))
    members = st.frozensets(st.integers(0, n - 1))
    return IndexSet(n, draw(members)), IndexSet(n, draw(members))


def _plane_counts(planes, n):
    """The count at each bit of [0, n), read off the counter planes."""
    c = [0] * n
    for k, P in enumerate(planes):
        for t, b in enumerate(format(P & (1 << n) - 1, f"0{n}b")[::-1]):
            if b == "1":
                c[t] += 1 << k
    return c


def _counts(X, Y, n):
    """c[tau] = |X ∩ (Y + tau)| from the kernel: block 0 of column [X, Y]."""
    _, planes = _column_counts([X, Y], n)
    return _plane_counts(planes, n)


@given(_set_pair())
def test_difference_counts_match_bit_oracle(pair):
    X, Y = pair
    n = X.n
    xb, yb = bits(X), bits(Y)
    # sum_t y_t x_{t+tau} = #{t in Y : t + tau in X} = |X ∩ (Y + tau)|
    cross = [bit_corr(yb, xb, tau) for tau in range(n)]
    assert _counts(X.members, Y.members, n) == cross
    best = max(cross)
    assert _cross_peak(X, Y) == (best, min(t for t in range(n)
                                            if cross[t] == best))
    auto = {tau: bit_corr(xb, xb, tau) for tau in range(1, n)}
    if auto:
        best = max(auto.values())
        assert _auto_peak(X) == (best, min(t for t in auto
                                             if auto[t] == best))
    else:
        assert _auto_peak(X) == (0, None)


@st.composite
def _masked_pair(draw):
    n = draw(st.integers(1, 48))
    dense = draw(st.booleans())
    members = st.frozensets(st.integers(0, n - 1),
                            min_size=n // 2 if dense else 0)
    return draw(members), draw(members), n, draw(st.integers(0, (1 << n) - 1))


@given(_masked_pair())
def test_at_least_and_peak_match_pair_loop(case):
    X, Y, n, mask = case
    c = pair_difference_counts(X, Y, n)
    _, planes = _column_counts([X, Y], n)
    assert len(planes) == len(Y).bit_length()  # [] for an empty Y
    at_least = [_at_least(planes, v, mask)
                for v in range((1 << len(planes)) + 2)]
    for v, got in enumerate(at_least):
        assert got == sum(1 << t for t in range(n)
                          if mask >> t & 1 and c[t] >= v)
        if v + 1 < len(at_least):
            assert got & ~at_least[v + 1] == sum(
                1 << t for t in range(n) if mask >> t & 1 and c[t] == v)
    masked = [t for t in range(n) if mask >> t & 1]
    best = max((c[t] for t in masked), default=0)
    assert _peak(planes, mask) == (
        best, next((t for t in masked if c[t] == best), None))


def _range_counts(m, n):
    """c for X = Y = range(m) in Z_n, m <= n, in closed form: the
    difference d in (-m, m) occurs m - |d| times and lands on d mod n."""
    return [max(0, m - t) + (max(0, m - (n - t)) if t else 0)
            for t in range(n)]


# The counts c[tau] = |X ∩ (Y + tau)| are the coefficients of the cyclic
# product X(z)·Y(z^-1) mod z^n - 1; each tau's counter, its slot, is as wide
# as the number of planes.

@pytest.mark.parametrize("X,Y,n", [
    ({0}, {0}, 1), (set(), {0}, 1), ({0}, set(), 1),
    (set(), {1, 2}, 5), ({0, 3}, set(), 5),
    ({0, 1, 3}, {0, 1, 3}, 7), ({2, 5, 6}, {0, 4}, 7),
])
def test_product_counts_small_cases(X, Y, n):
    xb = [1 if t in X else 0 for t in range(n)]
    yb = [1 if t in Y else 0 for t in range(n)]
    c = _counts(X, Y, n)
    assert c == [bit_corr(yb, xb, tau) for tau in range(n)]
    assert c == pair_difference_counts(X, Y, n)
    if X == Y:
        assert c[0] == len(X)


@pytest.mark.parametrize("m,n", [(255, 600), (256, 600), (300, 400)])
def test_product_counts_at_slot_width_boundaries(m, n):
    # a count of 255 fits eight planes, 256 needs nine; the counts of
    # negative differences wrap round to the top of c
    planes, = _column_counts([range(m)], n)
    assert len(planes) == m.bit_length()
    assert _plane_counts(planes, n) == _range_counts(m, n)
    assert _range_counts(m, n) == pair_difference_counts(range(m),
                                                         range(m), n)


@pytest.mark.parametrize("m", [65535])
def test_product_counts_at_widest_slots(m):
    # 65535 is the largest count sixteen planes hold
    planes, = _column_counts([range(m)], m + 1)
    assert len(planes) == 16
    c = _plane_counts(planes, m + 1)
    assert c == _range_counts(m, m + 1)
    assert c[0] == m


@st.composite
def _dense_pair(draw):
    n = draw(st.integers(1, 48))
    members = st.frozensets(st.integers(0, n - 1), min_size=n // 2)
    return draw(members), draw(members), n


@given(_dense_pair())
def test_product_counts_match_pair_loop_and_bit_oracle(pair):
    X, Y, n = pair
    xb = [1 if t in X else 0 for t in range(n)]
    yb = [1 if t in Y else 0 for t in range(n)]
    c = _counts(X, Y, n)
    assert c == pair_difference_counts(X, Y, n)
    assert c == [bit_corr(yb, xb, tau) for tau in range(n)]


# ---------------------------------------------------------------------------
# verify_oos
# ---------------------------------------------------------------------------

def test_verify_singleton_passes():
    report = verify_oos([IndexSet(9, frozenset({0}))], 1)
    assert report.passed and report.max_auto == 0


def test_verify_rejects_unequal_weights():
    sets = [IndexSet(9, frozenset({0, 1})), IndexSet(9, frozenset({0}))]
    with pytest.raises(OocError, match="weights"):
        verify_oos(sets, 1)


def test_verify_matches_bit_level_oracle():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(8, 20)
        w = rng.randrange(2, 5)
        t = rng.randrange(1, 4)
        sets = []
        while len(sets) < t:
            X = IndexSet(n, frozenset(rng.sample(range(n), w)))
            if all(X.members != Y.members for Y in sets):
                sets.append(X)
        lam = rng.randrange(1, w + 1)
        words = [bits(X) for X in sets]
        assert verify_oos(sets, lam).passed == bit_level_ooc_ok(words, lam)


def test_verify_dense_family_matches_bit_level_oracle():
    # w/n = 1/4: a dense family, seven counter planes
    rng = random.Random(15)
    n, w = 400, 100
    sets = [IndexSet(n, frozenset(rng.sample(range(n), w))) for _ in range(4)]
    words = [bits(X) for X in sets]
    report = verify_oos(sets, w)
    worst = max(report.max_auto, report.max_cross)
    for wit in report.witnesses:
        x, y = ((wit["word"],) * 2 if wit["kind"] == "auto"
                else wit["words"])
        assert bit_corr(words[y], words[x], wit["tau"]) == wit["value"]
    assert verify_oos(sets, worst).passed and bit_level_ooc_ok(words, worst)
    assert not verify_oos(sets, worst - 1).passed
    assert not bit_level_ooc_ok(words, worst - 1)


def _assert_same_report_as_pair_loop(sets, lam):
    report = verify_oos(sets, lam)
    assert report.to_dict() == pair_verify_oos(sets, lam).to_dict()
    words = [bits(X) for X in sets]
    for wit in report.witnesses:
        x, y = ((wit["word"],) * 2 if wit["kind"] == "auto"
                else wit["words"])
        if wit["tau"] is None:  # n = 1 has no auto-correlation shift
            assert sets[0].n == 1 and wit["value"] == 0
            continue
        # sum_t y_t x_{t+tau} = |X ∩ (Y + tau)|
        assert bit_corr(words[y], words[x], wit["tau"]) == wit["value"]


@st.composite
def _oos_family(draw):
    code = draw(_family())
    sets = list(code.codewords)
    if draw(st.booleans()):  # a repeated word
        sets.insert(draw(st.integers(0, len(sets))),
                    draw(st.sampled_from(sets)))
    return sets, code.lam


@given(_oos_family())
def test_verify_oos_matches_pair_loop_oracle(family):
    _assert_same_report_as_pair_loop(*family)


@pytest.mark.parametrize("n,words,lam", [
    (1, [{0}], 0),                              # n = 1: no auto shift
    (1, [{0}, {0}], 1),
    (1, [set(), set()], 0),                     # w = 0 at n = 1
    (9, [set(), set(), set()], 0),              # w = 0: every count is 0
    (7, [{0}, {5}, {0}], 1),                    # repeated word
    (12, [{0, 6}, {1, 7}, {2, 8}, {3, 9}], 1),  # ties across pairs and tau
    (13, [{0, 1}, {0, 5}, {4, 9}, {3, 4}], 1),  # (0, 3) ties (1, 2) later
    (300, [range(256), range(44, 300),          # w = 256: nine planes
           [*range(10), *range(54, 300)]], 255),
    (300, [range(1, 300), range(299)], 299),    # w = 299, near full
])
def test_verify_oos_edge_families_match_pair_loop(n, words, lam):
    sets = [IndexSet(n, frozenset(m)) for m in words]
    _assert_same_report_as_pair_loop(sets, lam)


def test_verify_oos_witness_is_lowest_pair_then_smallest_tau():
    # pair (0, 2) reaches 1 at tau = 0, but the lower pair (0, 1) reaches
    # it too, at tau = 2
    sets = [IndexSet(7, frozenset(m)) for m in ({0}, {5}, {0})]
    cross = verify_oos(sets, 1).witnesses[1]
    assert cross == {"kind": "cross", "words": [0, 1], "tau": 2, "value": 1}


def test_verify_oos_counts_without_difference_counts():
    # one kernel counts for the subspace sweeps and verify_oos alike
    for module in (oocgen, subspaces, ooc):
        assert not hasattr(module, "difference_counts")
        assert not hasattr(module, "_product_counts")
    assert ooc._column_counts is subspaces._column_counts
    rng = random.Random(16)
    for n, w in [(2400, 49), (400, 100)]:  # sparse and dense families
        sets = [IndexSet(n, frozenset(rng.sample(range(n), w)))
                for _ in range(3)]
        _assert_same_report_as_pair_loop(sets, w)


# ---------------------------------------------------------------------------
# field-side conditions (Theorem-equivalence spot checks)
# ---------------------------------------------------------------------------

def test_field_conditions_singleton():
    ok, wit = check_field_conditions(F81, [[F81.one()]], 1)
    assert ok and wit is None


def test_field_conditions_dilated_pair_fails():
    rng = random.Random(13)
    W = [F81.from_idx(i) for i in rng.sample(range(80), 5)]
    beta = F81.from_idx(37)
    W2 = [beta * x for x in W]
    ok, wit = check_field_conditions(F81, [W, W2], 4)
    assert not ok
    assert wit["value"] == 5
    # the witness alpha is exactly a dilation carrying one set onto the other
    alpha = F81.from_idx(F81.log[wit["alpha_code"]])
    assert alpha in (beta, inverse(beta))


def test_field_conditions_reject_zero():
    with pytest.raises(OocError):
        check_field_conditions(F81, [[F81.zero(), F81.one()]], 1)


def test_field_conditions_agree_with_set_level():
    rng = random.Random(14)
    for _ in range(20):
        w = rng.randrange(2, 5)
        t = rng.randrange(1, 3)
        fams = []
        while len(fams) < t:
            W = frozenset(rng.sample(range(80), w))
            if W not in fams:
                fams.append(W)
        lam = rng.randrange(1, 4)
        field_ok, _ = check_field_conditions(
            F81, [[F81.from_idx(i) for i in W] for W in fams], lam)
        set_ok = verify_oos([s_of_w(F81, W) for W in fams], lam).passed
        assert field_ok == set_ok


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_johnson_lambda1_formula():
    for n, w in [(100, 7), (63, 8), (31, 5)]:
        assert johnson_bound(n, w, 1) == ((n - 1) // (w - 1)) // w


def test_johnson_examples():
    assert johnson_bound(8, 4, 2) == 1
    assert johnson_bound(63, 8, 2) == 11


def test_johnson_rejects_lam_ge_w():
    with pytest.raises(OocError):
        johnson_bound(8, 4, 5)
    with pytest.raises(OocError, match="lambda must be >= 0"):
        johnson_bound(10, 3, -1)
    with pytest.raises(OocError):
        johnson_bound(0, 0, -1)


@given(st.integers(10, 400), st.integers(3, 9), st.integers(1, 7))
def test_johnson_monotonicity(n, w, lam):
    if lam >= w or w > n:
        return
    j = johnson_bound(n, w, lam)
    assert johnson_bound(n + 1, w, lam) >= j
    if lam < w - 1:
        assert johnson_bound(n, w, lam + 1) >= j
    if lam < w - 1 and w + 1 <= n:
        assert johnson_bound(n, w + 1, lam) <= j


def test_optimality_ratio():
    assert optimality_ratio(11, 63, 8, 2) == 1
    assert optimality_ratio(4, 80, 9, 3) == Fraction(4, johnson_bound(80, 9, 3))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_build_ooc_q3_values(pipeline_q3):
    code, ooc, params, report = pipeline_q3
    assert (params.n, params.w, params.lam) == (80, 9, 3)
    assert params.size == 4
    assert report.passed
    assert params.size <= params.johnson
    # weight law: every codeword has weight exactly q^k
    assert all(len(cw.members) == 9 for cw in ooc.codewords)


def test_autocorrelation_at_tau0_equals_weight(pipeline_q3):
    _, ooc, _, _ = pipeline_q3
    for cw in ooc.codewords:
        assert bit_corr(bits(cw), bits(cw), 0) == ooc.w


def test_build_ooc_q3_bit_oracle(pipeline_q3):
    _, ooc, params, _ = pipeline_q3
    words = [bits(cw) for cw in ooc.codewords]
    assert bit_level_ooc_ok(words, params.lam)
    assert not bit_level_ooc_ok(words, params.lam - 1)


def test_build_ooc_makes_no_field_element(monkeypatch):
    # once construct_g has chosen the subspaces, a field subset is its log
    # indices: the coset scan, S(W) and the verify make no FieldElement
    code = construct_g(3, 2, 1)
    calls = []
    init = FieldElement.__init__

    def spy(self, field, idx):
        calls.append(idx)
        init(self, field, idx)

    monkeypatch.setattr(FieldElement, "__init__", spy)
    ooc, _, _ = build_ooc(code)
    assert len(ooc.codewords) == 4
    assert calls == []


def test_params_table():
    rows = params_table([(3, 2), (4, 2), (5, 2)])
    assert rows[0]["n"] == 80 and rows[0]["size"] == 4
    assert rows[1]["size"] == 5  # floor(3/2) * (16-1)/3
    assert rows[2]["n"] == 624 and rows[2]["size"] == 12
    for row in rows:
        assert row["ratio"] < 1
    for spec in [(2, 2), (3, 1), (6, 2)]:  # construct_g rejects these too
        with pytest.raises(ValueError):
            params_table([spec])
        with pytest.raises(ValueError):
            construct_g(*spec, 1)
