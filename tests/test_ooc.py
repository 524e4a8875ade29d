"""Index sets, correlation maxima, field-side conditions, bounds, pipeline."""

import inspect
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oocgen
from oocgen import (CosetFamily, CyclicSubspaceCode, IndexSet, OocCode,
                    OocError, Subspace, build_coset_family, build_ooc,
                    construct_g, field_create, johnson_bound, optimality_ratio,
                    params_table, s_of_w, verify_oos)
from oocgen import field, kernel, ooc, subspaces
from oocgen.kernel import _BlockStack, _peak
from oocgen.ooc import read_ooc_text, support, unsupport, write_ooc_text
from conftest import (bit_corr, bit_level_ooc_ok, bits, check_field_conditions,
                      inverse, log_of, pair_difference_counts, pair_verify_oos,
                      shift, stack_calls, strictly_increasing)


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


@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_family())
def test_bits_file_roundtrip(tmp_path, ooc):
    path = tmp_path / "x.ooc"
    write_ooc_text(ooc, path)
    assert read_ooc_text(path) == (list(ooc.codewords), ooc.lam)
    lines = path.read_text().splitlines()[1:]
    assert lines == ["".join(map(str, bits(X))) for X in ooc.codewords]


@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 70).flatmap(lambda n: st.lists(
    st.text("01", min_size=n, max_size=n), min_size=1, max_size=6)))
def test_read_ooc_text_matches_per_character_parse(tmp_path, lines):
    # an all-0 line (no hit) and an all-1 line (a hit at every step) are
    # the find loop's edge cases, so every file holds both
    n = len(lines[0])
    lines = ["0" * n, "1" * n, *lines]
    path = tmp_path / "x.ooc"
    path.write_text("".join(f"{line}\n" for line in lines))
    sets, lam = read_ooc_text(path)
    assert lam is None
    assert sets == [IndexSet(n, frozenset(i for i, b in enumerate(line)
                                          if b == "1")) for line in lines]


def test_support_basic():
    X = IndexSet(4, frozenset({0, 2}))
    assert bits(support(X)) == (1, 0, 1, 0)
    assert set(support(X).members) == {0, 2}
    assert strictly_increasing(support(X).members)
    assert len(support(X).members) == 2


def test_support_unsupport_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        X = IndexSet(12, frozenset(i for i in range(12) if rng.randint(0, 1)))
        assert unsupport(support(X), 12) == X
        assert bits(unsupport(X, 12)) == bits(X)


@pytest.mark.parametrize("n,members", [(0, set()), (5, {1.5}), (5, {-1}),
                                       (True, {0}), (5, {True}), (5, {5}),
                                       (5, {0, True}), (5, {0, 4, 5})])
def test_index_set_rejects_bad_modulus_or_member(n, members):
    message = ("index set member out of range" if type(n) is int and n > 0
               else "modulus must be a positive integer")
    with pytest.raises(OocError, match=message):
        IndexSet(n, frozenset(members))


def test_index_set_accepts_the_empty_set_and_the_whole_range():
    assert IndexSet(5, frozenset()).members == ()
    assert IndexSet(5, frozenset(range(5))).sorted() == [0, 1, 2, 3, 4]


def test_index_set_keeps_an_increasing_tuple_and_sorts_anything_else():
    t = (0, 3, 5)
    assert IndexSet(7, t).members is t
    for members in ([5, 0, 3], (5, 3, 0), {0, 3, 5}, frozenset({5, 3, 0})):
        assert IndexSet(7, members).members == t


def test_index_set_with_a_repeated_member_is_refused():
    # a repeat used to count twice: [0, 0, 1] had weight 3 and max_auto 2
    for members in ([0, 0, 1], (0, 0, 1), (0, 1, 1), [1, 0, 1]):
        with pytest.raises(OocError, match="repeats a member"):
            IndexSet(7, members)
    report = verify_oos([IndexSet(7, [0, 1])], 2)
    assert report.max_auto == 1


def test_equal_index_sets_compare_and_hash_equal_in_any_order():
    forms = [IndexSet(7, [1, 0]), IndexSet(7, frozenset({0, 1})),
             IndexSet(7, (0, 1)), IndexSet(7, (1, 0)), IndexSet(7, {1, 0})]
    for X in forms:
        assert X == forms[0] and hash(X) == hash(forms[0])
    assert len(set(forms)) == 1
    assert IndexSet(7, (0, 1)) != IndexSet(8, (0, 1))
    assert IndexSet(7, (0, 1)) != IndexSet(7, (0, 2))


def test_unsupport_rejects_out_of_range():
    with pytest.raises(OocError):
        unsupport(IndexSet(10, frozenset({3, 7})), 5)


def test_s_of_w_examples():
    assert set(s_of_w(F81, [0]).members) == {0}
    assert set(s_of_w(F81, [7, 3]).members) == {3, 7}
    assert strictly_increasing(s_of_w(F81, [7, 3]).members)
    # a coset's sorted tuple of log indices is taken as it is, not copied
    W = (1, 5, 40)
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
        alpha = rng.randrange(80)
        scaled = [F81.mul(alpha, i) for i in W]
        assert s_of_w(F81, scaled) == shift(s_of_w(F81, W), alpha)


# ---------------------------------------------------------------------------
# correlation maxima
# ---------------------------------------------------------------------------

# The correlation maxima are read off the kernel's planes directly:
# |X ∩ (X + tau)| for 0 < tau < n from the own mask of X counted on an
# empty stack, less its lowest bit (tau = 0), and |X ∩ (Y + tau)| for
# 0 <= tau < n from the below mask of Y counted on the stack [X], each
# with the lowest tau that reaches it (None for an empty mask).

def _stacked(sets, n):
    """A block stack of modulus n with each of sets counted and pushed."""
    stack = _BlockStack(n)
    for X in sets:
        stack.count(X)
        stack.push()
    return stack


def _lowest_peak(stack, planes, mask):
    v, bits = _peak(planes, mask)
    return v, stack.first(bits)[1] if bits else None


def _auto_peak(X):
    stack = _BlockStack(X.n)
    planes, own, _ = stack.count(X.members)
    return _lowest_peak(stack, planes, own & own - 1)


def _cross_peak(X, Y):
    stack = _stacked([X.members], X.n)
    planes, _, below = stack.count(Y.members)
    return _lowest_peak(stack, planes, below)


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


def _plane_counts(planes, mask):
    """The count at each bit of mask, lowest bit first, read off the
    counter planes."""
    width = mask.bit_length()
    at = [t for t, b in enumerate(format(mask, "b")[::-1]) if b == "1"]
    c = [0] * len(at)
    for k, P in enumerate(planes):
        row = format(P & mask, f"0{width}b")[::-1]
        for i, t in enumerate(at):
            if row[t] == "1":
                c[i] += 1 << k
    return c


def _counts(X, Y, n):
    """c[tau] = |X ∩ (Y + tau)| from the kernel: the below mask of Y
    counted on the stack [X]."""
    planes, _, below = _stacked([X], n).count(Y)
    return _plane_counts(planes, below)


@given(_set_pair())
def test_column_counts_match_bit_oracle(pair):
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
def test_peak_matches_pair_loop(case):
    X, Y, n, mask = case
    c = pair_difference_counts(X, Y, n)
    planes, _, _ = _stacked([X], n).count(Y)
    assert len(planes) == len(Y).bit_length()  # [] for an empty Y
    masked = [t for t in range(n) if mask >> t & 1]
    best = max((c[t] for t in masked), default=0)
    assert _peak(planes, mask) == (
        best, sum(1 << t for t in masked if c[t] == best))


def _range_counts(m, n):
    """c for X = Y = range(m) in Z_n, m <= n, in closed form: the
    difference d in (-m, m) occurs m - |d| times and lands on d mod n."""
    return [max(0, m - t) + (max(0, m - (n - t)) if t else 0)
            for t in range(n)]


# The count c[tau] = |X ∩ (Y + tau)| is spread over the counter planes:
# bit k of c[tau] is bit tau of plane k, so d planes hold counts up to
# 2^d - 1, and a column has as many planes as its set's size has bits.

@pytest.mark.parametrize("X,Y,n", [
    ({0}, {0}, 1), (set(), {0}, 1), ({0}, set(), 1),
    (set(), {1, 2}, 5), ({0, 3}, set(), 5),
    ({0, 1, 3}, {0, 1, 3}, 7), ({2, 5, 6}, {0, 4}, 7),
])
def test_column_counts_small_cases(X, Y, n):
    xb = [1 if t in X else 0 for t in range(n)]
    yb = [1 if t in Y else 0 for t in range(n)]
    c = _counts(X, Y, n)
    assert c == [bit_corr(yb, xb, tau) for tau in range(n)]
    assert c == pair_difference_counts(X, Y, n)
    if X == Y:
        assert c[0] == len(X)


@pytest.mark.parametrize("m,n", [(255, 600), (256, 600), (300, 400)])
def test_column_counts_at_plane_count_boundaries(m, n):
    # a count of 255 fits eight planes, 256 needs nine; the counts of
    # negative differences wrap round to the top of c
    planes, own, _ = _BlockStack(n).count(range(m))
    assert len(planes) == m.bit_length()
    assert _plane_counts(planes, own) == _range_counts(m, n)
    assert _range_counts(m, n) == pair_difference_counts(range(m),
                                                         range(m), n)


@pytest.mark.parametrize("m", [65535])
def test_column_counts_at_sixteen_planes(m):
    # 65535 is the largest count sixteen planes hold
    planes, own, _ = _BlockStack(m + 1).count(range(m))
    assert len(planes) == 16
    c = _plane_counts(planes, own)
    assert c == _range_counts(m, m + 1)
    assert c[0] == m


def _check_columns(sets, n):
    """Every set counted and pushed in turn against the bit oracle: block i
    of set j's count holds |X_i ∩ (X_j + tau)|, in len(X_j).bit_length()
    planes; block i is read through the own mask that set i's count
    returned."""
    stack, owns = _BlockStack(n), []
    for j, X in enumerate(sets):
        planes, own, _ = stack.count(X)
        stack.push()
        owns.append(own)
        assert len(planes) == len(sets[j]).bit_length()
        yb = [1 if t in sets[j] else 0 for t in range(n)]
        for i in range(j + 1):
            xb = [1 if t in sets[i] else 0 for t in range(n)]
            assert _plane_counts(planes, owns[i]) == [bit_corr(yb, xb, tau)
                                                      for tau in range(n)]


def test_column_counts_for_every_set_size_to_nine():
    # sizes 0-9 leave 0-3 rows after the groups of four and give 0-4
    # planes; each column is checked against every column before it
    rng = random.Random(16)
    n = 13
    sizes = list(range(10)) + [9, 4, 0, 7, 1, 8, 3]
    _check_columns([frozenset(rng.sample(range(n), w)) for w in sizes], n)


@given(st.integers(9, 24).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.frozensets(st.integers(0, n - 1), max_size=9), min_size=1,
    max_size=6))))
def test_column_counts_of_mixed_sizes_match_bit_oracle(case):
    n, sets = case
    _check_columns(sets, n)


@given(st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.frozensets(st.integers(0, n - 1), max_size=9), max_size=6))))
def test_column_counts_yield_the_layout_masks(case):
    # the layout contract: set j's counts against stacked set i sit at
    # bits [2n·i, 2n·i + n), own is block j's, below every stacked block's,
    # and first reads a count's bit back as (i, tau)
    n, sets = case
    stack, earlier = _BlockStack(n), 0
    for j, X in enumerate(sets):
        _, own, below = stack.count(X)
        stack.push()
        assert own == ((1 << n) - 1) << 2 * n * j
        assert below == earlier
        earlier |= own
        for tau in range(n):
            bit = 1 << 2 * n * j + tau
            assert stack.first(bit) == (j, tau)
            assert stack.first(bit | own << n) == (j, tau)  # the lowest bit
    # every set was stacked once: the next count is laid out as block m
    _, own, below = stack.count(())
    assert own == ((1 << n) - 1) << 2 * n * len(sets) and below == earlier


def _column(stack, X):
    """stack.count(X) with its planes copied, since the next count reuses
    the list."""
    planes, own, below = stack.count(X)
    return list(planes), own, below


_stack_case = st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n), *[st.lists(st.frozensets(st.integers(0, n - 1), max_size=9),
                           max_size=4)] * 2,
    st.frozensets(st.integers(0, n - 1), max_size=9)))


@given(_stack_case)
def test_count_without_push_leaves_the_stack_as_it_was(case):
    # counts that are never pushed leave no trace: the next count equals
    # the same count on a stack built from the pushed sets alone
    n, kept, dropped, Y = case
    stack = _stacked(kept, n)
    for X in dropped:
        stack.count(X)
    fresh = _stacked(kept, n)
    assert _column(stack, Y) == _column(fresh, Y)
    assert stack.B == fresh.B  # Y's block on top of the same stack


@given(_stack_case)
def test_pushing_only_passing_sets_equals_a_stack_of_them(case):
    # a greedy search counts each candidate and pushes it only if no count
    # against the kept sets or its own nonzero shifts exceeds 1; each kept
    # count, and a last count of Y, equal those on a stack of kept sets only
    n, first, rest, Y = case
    stack, kept, columns = _BlockStack(n), [], []
    for X in first + rest:
        column = _column(stack, X)
        planes, own, below = column
        if _peak(planes, below | own & own - 1)[0] <= 1:
            stack.push()
            kept.append(X)
            columns.append(column)
    fresh = _BlockStack(n)
    for X, column in zip(kept, columns):
        assert _column(fresh, X) == column
        fresh.push()
    assert _column(stack, Y) == _column(fresh, Y)


def test_one_planes_list_is_reused_across_counts():
    # every count resets the same list in place, pushed or not, so a
    # caller's reference to the last planes does not keep them alive
    stack = _BlockStack(7)
    planes, _, _ = stack.count([0, 1, 3])
    assert stack.count([2, 5])[0] is planes
    stack.push()
    assert stack.count([0, 1, 4, 5, 6])[0] is planes
    assert planes == _stacked([[2, 5]], 7).count([0, 1, 4, 5, 6])[0]


def test_push_needs_a_count_since_the_last_push():
    stack = _BlockStack(5)
    with pytest.raises(ValueError, match="needs a count"):
        stack.push()
    stack.count([1, 2])
    stack.push()
    with pytest.raises(ValueError, match="needs a count"):
        stack.push()
    stack.count([])  # an empty set is a block too
    stack.push()
    assert stack.count([0])[1:] == (((1 << 5) - 1) << 20,
                                    sum(((1 << 5) - 1) << 10 * i
                                        for i in range(2)))


@st.composite
def _dense_pair(draw):
    n = draw(st.integers(1, 48))
    members = st.frozensets(st.integers(0, n - 1), min_size=n // 2)
    return draw(members), draw(members), n


@given(_dense_pair())
def test_column_counts_match_pair_loop_and_bit_oracle(pair):
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


@st.composite
def _bounded_family(draw):
    """2-8 words of equal weight in Z_n, n = r b <= 64.  Each word is a
    set of residues modulo b lifted to all r of its classes, so for r > 1
    every auto peak is w, as at a G code every auto peak is lam; about a
    third are cyclic shifts of earlier words, which tie the cross peak at
    w at pairs beyond (0, 1)."""
    r = draw(st.integers(1, 8))
    b = draw(st.integers(1, 64 // r))
    u = draw(st.integers(0, b))
    base = st.frozensets(st.integers(0, b - 1), min_size=u, max_size=u)
    lift = lambda m: {x + b * i for x in m for i in range(r)}
    words = [lift(draw(base))]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.integers(0, 2)) == 0:
            tau = draw(st.integers(0, r * b - 1))
            words.append({(a + tau) % (r * b)
                          for a in draw(st.sampled_from(words))})
        else:
            words.append(lift(draw(base)))
    return [IndexSet(r * b, m) for m in words]


@settings(max_examples=300, deadline=None)
@given(_bounded_family())
def test_verify_oos_with_a_true_bound_reports_the_full_sweep(sets):
    # every count is <= top, so words 0 and 1 holding top in both maxima
    # fix the report: build_ooc's rule once the orbit proof holds
    full = verify_oos(sets, 0)
    top = max(full.max_auto, full.max_cross)
    head = verify_oos(sets[:2], top)
    if head.max_auto == head.max_cross == top:
        assert head == verify_oos(sets, top)


def test_verify_oos_has_no_bound():
    # verify_oos is the full sweep only; build_ooc picks the words it sweeps
    assert "bound" not in inspect.signature(verify_oos).parameters


@pytest.mark.parametrize("words,columns", [
    # auto 2 at word 0 and cross 2 at (0, 1): words 0 and 1 fix the report
    ([{0, 1, 3, 4}, {4, 7, 17, 18}, {11, 15, 19, 29}, {2, 18, 19, 20}], 2),
    # (0, 1) holds 1; (1, 2) reaches 2 before (0, 3), the lower pair
    ([{0, 1, 3, 4}, {1, 9, 18, 24}, {7, 13, 18, 28}, {8, 19, 21, 27}], 4),
    # auto 2 at word 0 while (0, 1) holds 1; the cross 2 is at (1, 2) only
    ([{0, 1, 3, 4}, {0, 6, 13, 23}, {0, 12, 18, 26}, {4, 9, 14, 29}], 4),
    # cross 2 at (0, 1) while words 0 and 1 hold auto 1; word 2 reaches 2
    ([{0, 7, 15, 26}, {16, 19, 20, 30}, {1, 14, 21, 23}, {17, 21, 25, 27}],
     4),
])
def test_verify_oos_stops_once_both_witnesses_are_fixed(monkeypatch, words,
                                                        columns):
    # build_ooc's route on a family whose every count is <= lam = 2: the
    # F_32 code of two orbits of planes over F_2 has d = 2, so lam = 2 and
    # n = 31; its coset family is replaced by the words, and its orbit
    # proof is taken to hold.  Words 0 and 1 are swept first; unless both of
    # their maxima are lam, the full sweep of columns = 4 words follows
    f32 = field_create(2, 5)
    code = CyclicSubspaceCode(f32, 2, (Subspace(f32, 2, [0, 1]),
                                       Subspace(f32, 2, [0, 2])))
    assert code.min_distance == 2
    sets = [IndexSet(31, m) for m in words]
    full = verify_oos(sets, 2)
    assert max(full.max_auto, full.max_cross) == 2
    family = CosetFamily(tuple(X.members for X in sets))
    monkeypatch.setattr(subspaces, "build_coset_family", lambda code: family)
    monkeypatch.setattr(subspaces, "_orbit_proof", lambda code, cosets: True)
    calls = stack_calls(monkeypatch, ooc)
    assert build_ooc(code)[2] == full
    assert calls == [[2, 2]] + ([[columns, columns]] if columns > 2 else [])
    _assert_same_report_as_pair_loop(sets, 2)


def test_verify_oos_refuses_mixed_moduli():
    sets = [IndexSet(5, frozenset({0, 1})), IndexSet(6, frozenset({0, 2}))]
    with pytest.raises(OocError, match=r"^set 1 has modulus 6, expected 5$"):
        verify_oos(sets, 1)


def test_verify_oos_refuses_a_modulus_too_large_to_lay_out():
    # the kernel's masks cannot be built for n = 2^70: an OverflowError
    # raised inside the column loop becomes a data error
    n = 2 ** 70
    with pytest.raises(OocError, match=rf"^modulus n = {n} is too large to"):
        verify_oos([IndexSet(n, (0,))], 1)


def test_verify_oos_counts_without_difference_counts():
    # one kernel counts for the subspace sweeps and verify_oos alike
    for module in (oocgen, subspaces, ooc):
        assert not hasattr(module, "difference_counts")
        assert not hasattr(module, "_product_counts")
    # an element is its log index: the object layer is gone
    for owner in (oocgen, field, field.ExtensionField):
        for name in ("FieldElement", "SubfieldEmbedding", "from_idx"):
            assert not hasattr(owner, name)
    assert ooc._BlockStack is subspaces._BlockStack is kernel._BlockStack
    assert not hasattr(subspaces, "_column_counts")
    assert not hasattr(subspaces, "_first")
    rng = random.Random(16)
    for n, w in [(2400, 49), (400, 100)]:  # sparse and dense families
        sets = [IndexSet(n, frozenset(rng.sample(range(n), w)))
                for _ in range(3)]
        _assert_same_report_as_pair_loop(sets, w)


def _words(q, k):
    """G_{2k,1} and its coset family's words, each a sorted tuple."""
    code = construct_g(q, k, 1)
    return code, list(build_coset_family(code).cosets)


def _block(planes, i, n):
    """The planes of block i's counts, moved down to bits [0, n)."""
    return [P >> 2 * n * i & (1 << n) - 1 for P in planes]


def _plus_one(planes, low):
    """The planes of each count plus one, at the bits of low."""
    out, carry = [], low
    for P in planes:
        out.append(P ^ carry)
        carry &= P
    return out + [carry] if carry else out


def _lemma_violations(code, words):
    """The word pairs (i, j), i <= j, whose counts break the coset lemma.

    Word i is the coset W_i = U_a + x of orbit a = i // t, with x outside
    U_a, and X_j + tau is omega^tau W_j.  Two affine cosets meet in nothing
    or in a coset of the intersection of their subspaces, so every count
    |X_i ∩ (X_j + tau)| is 0 or |U_a ∩ omega^tau U_b| = 1 + D_ab[tau], with
    D_ab[tau] = |U_a^* ∩ (U_b^* + tau)| counted on a stack of the orbits.
    Where a = b and tau is a multiple of N/(q - 1), omega^tau W_j is a coset
    of U_a, so the count is 0 except at tau = 0 of a word with itself.
    """
    n, q = code.field.N, code.ground_q
    t, low = len(words) // len(code.representatives), (1 << n) - 1
    stab = sum(1 << tau for tau in range(0, n, n // (q - 1)))
    orbits, stack, bad = _BlockStack(n), _BlockStack(n), []
    for b, U in enumerate(code.representatives):
        planes, _, _ = orbits.count(subspaces._nonzero(U))
        orbits.push()
        lemma = [_plus_one(_block(planes, a, n), low) for a in range(b + 1)]
        for j in range(b * t, (b + 1) * t):
            planes, _, _ = stack.count(words[j])
            stack.push()
            for i in range(j + 1):
                c, e = _block(planes, i, n), lemma[i // t]
                nonzero = differ = 0
                for k in range(max(len(c), len(e))):
                    ck = c[k] if k < len(c) else 0
                    nonzero |= ck
                    differ |= ck ^ (e[k] if k < len(e) else 0)
                if nonzero & differ or (
                        i // t == b and nonzero & stab != int(i == j)):
                    bad.append((i, j))
    return bad


@pytest.mark.parametrize("q,k", [(3, 2), (5, 2), (7, 2), (3, 3), (4, 3)])
def test_word_counts_are_orbit_counts_plus_one_or_zero(q, k):
    # the lemma certificate, count by count; one member of one word moved
    # to a free position must break it
    code, words = _words(q, k)
    assert _lemma_violations(code, words) == []
    n, word = code.field.N, words[-1]
    free = next(a % n for a in range(word[-1] + 1, word[-1] + n)
                if a % n not in word)
    words[-1] = tuple(sorted(word[:-1] + (free,)))
    assert _lemma_violations(code, words) != []


def test_verify_oos_peak_memory_holds_one_word_stack():
    # the stacked integer of all 40 words at (9,2) takes S = 2n·40 bits.
    # verify_oos peaks at about 19 S: B, the shifted rows, the seven count
    # planes, the adder temporaries and the masks, each of about S.  A
    # second stacked integer kept alive while a word is counted adds S.
    code, words = _words(9, 2)
    sets = [s_of_w(code.field, W) for W in words]
    S = 2 * code.field.N * len(sets) // 8
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert verify_oos(sets, 9).passed
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 19.5 * S, (peak, S)


# ---------------------------------------------------------------------------
# field-side conditions (Theorem-equivalence spot checks)
# ---------------------------------------------------------------------------

def test_field_conditions_singleton():
    ok, wit = check_field_conditions(F81, [[0]], 1)
    assert ok and wit is None


def test_field_conditions_dilated_pair_fails():
    rng = random.Random(13)
    W = rng.sample(range(80), 5)
    beta = 37
    W2 = [F81.mul(beta, x) for x in W]
    ok, wit = check_field_conditions(F81, [W, W2], 4)
    assert not ok
    assert wit["value"] == 5
    # the witness alpha is exactly a dilation carrying one set onto the other
    alpha = log_of(F81, wit["alpha_code"])
    assert alpha in (beta, inverse(F81, beta))


def test_field_conditions_reject_zero():
    with pytest.raises(OocError):
        check_field_conditions(F81, [[-1, 0]], 1)


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
        field_ok, _ = check_field_conditions(F81, fams, lam)
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


def test_build_ooc_makes_no_field_element():
    # an element is its log index: the bases construct_g picks, the cosets
    # and the words hold ints and nothing else
    code = construct_g(3, 2, 1)
    ooc, _, _ = build_ooc(code)
    assert len(ooc.codewords) == 4
    assert all(type(b) is int for U in code.representatives for b in U.basis)
    assert all(type(x) is int for cw in ooc.codewords for x in cw.members)


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
