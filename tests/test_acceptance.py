"""Acceptance suite: one test per criterion, exact tolerances, pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import itertools
import random
import time

from oocgen import (CyclicSubspaceCode, Subspace, code_min_distance,
                    construct_g, construct_w, field_create, s_of_w,
                    verify_oos)
from conftest import (bit_level_ooc_ok, bits, check_field_conditions,
                      gaussian_binomial, inverse, is_sidon, log_of, orbit_size,
                      shift, span_set)


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_pipeline_q3():
    from oocgen import build_ooc
    start = time.monotonic()
    code = construct_g(3, 2, 1)
    ooc, params, report = build_ooc(code)
    assert (params.n, params.w, params.lam) == (80, 9, 3)
    assert params.size == 4
    assert report.passed
    assert max(report.max_auto, report.max_cross) <= 3
    words = [bits(cw) for cw in ooc.codewords]
    assert bit_level_ooc_ok(words, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report("criterion 1", f"(80,9,3) size=4 verified, bit oracle agrees, "
                           f"{elapsed:.2f}s")


def test_criterion_2_pipeline_q5():
    from oocgen import build_ooc
    start = time.monotonic()
    code = construct_g(5, 2, 1)
    ooc, params, report = build_ooc(code)
    assert (params.n, params.w, params.lam) == (624, 25, 5)
    assert params.size == 12 == 2 * (25 - 1) // 4
    assert report.passed
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report("criterion 2", f"(624,25,5) size=12 verified, {elapsed:.2f}s")


def test_criterion_3_single_orbit_q2(pipeline_q2_sidon):
    code, ooc, params, report = pipeline_q2_sidon
    assert (params.n, params.w, params.lam) == (63, 8, 2)
    assert params.size == 7
    assert report.passed
    assert params.johnson == 11
    assert params.size <= params.johnson
    _report("criterion 3", "(63,8,2) size=7 verified, J(63,8,2)=11")


def test_criterion_4_sidon_iff_optimal_full_length():
    f = field_create(3, 4)
    seen = set()
    subspaces = []
    for i, j in itertools.combinations(range(80), 2):
        U = Subspace(f, 3, [i, j])
        S = span_set(U)
        if U.dim == 2 and S not in seen:
            seen.add(S)
            subspaces.append(U)
    assert len(subspaces) == gaussian_binomial(4, 2, 3) == 130
    full_length = 80 // 2
    for U in subspaces:
        sidon, _ = is_sidon(U)
        code = CyclicSubspaceCode(f, 3, (U,))
        optimal = (orbit_size(U) == full_length
                   and code_min_distance(code) == 2)
        assert sidon == optimal, f"disagreement at basis {U.basis}"
    _report("criterion 4", "Sidon <=> optimal full-length on all 130 "
                           "2-dim subspaces of F_81")


def test_criterion_5_field_vs_set_equivalence(pipeline_q3, pipeline_q5):
    from oocgen import build_coset_family
    f = field_create(3, 4)
    checked = 0
    # the constructed families
    for (code, _, params, _) in (pipeline_q3, pipeline_q5):
        fam = build_coset_family(code)
        fld = code.field
        field_ok, _ = check_field_conditions(fld, fam.cosets, params.lam)
        set_ok = verify_oos([s_of_w(fld, W) for W in fam.cosets],
                            params.lam).passed
        assert field_ok == set_ok == True
        checked += 1
    # 100 random families of small subsets of F_81^*
    rng = random.Random(20260824)
    for _ in range(100):
        w = rng.randrange(2, 6)
        t = rng.randrange(1, 4)
        fams = []
        while len(fams) < t:
            W = frozenset(rng.sample(range(80), w))
            if W not in fams:
                fams.append(W)
        lam = rng.randrange(1, 5)
        field_ok, _ = check_field_conditions(f, fams, lam)
        set_ok = verify_oos([s_of_w(f, W) for W in fams], lam).passed
        assert field_ok == set_ok
        checked += 1
    _report("criterion 5", f"field-side and set-side verdicts identical "
                           f"on {checked} families")


def test_criterion_6_log_shift_property():
    f = field_create(3, 4)
    rng = random.Random(6)
    for _ in range(100):
        W = rng.sample(range(80), rng.randrange(1, 8))  # W^*, log indices
        alpha = rng.randrange(80)
        scaled = [f.mul(alpha, i) for i in W]
        assert s_of_w(f, scaled) == shift(s_of_w(f, W), alpha)
    _report("criterion 6", "S(alpha W) = S(W) + dlog(alpha) on 100 random "
                           "(W, alpha)")


def test_criterion_7_negative_controls(pipeline_q3):
    f = field_create(3, 4)
    # (a) gcd(s, k) != 1 degenerate construction is not Sidon
    stride = f.subfield_stride(9)
    xi = next(x for x in range(f.N)
              if x % stride and f.add(0, x) >= 0)  # outside F_9, 1 + xi != 0
    U = construct_w(f, 3, 2, 2, 0, xi)
    sidon, witness = is_sidon(U)
    assert not sidon and witness is not None
    # (b) a dilated pair fails the field conditions at alpha = beta
    rng = random.Random(7)
    W = rng.sample(range(80), 4)
    beta = 29
    ok, wit = check_field_conditions(f, [W, [f.mul(beta, x) for x in W]], 3)
    assert not ok
    alpha = log_of(f, wit["alpha_code"])
    assert alpha in (beta, inverse(f, beta))
    assert wit["value"] == 4
    # (c) lowering lambda by one flips the q=3 pipeline to fail with value 3
    _, ooc, _, _ = pipeline_q3
    report = verify_oos(ooc.codewords, 2)
    assert not report.passed
    assert max(report.max_auto, report.max_cross) == 3
    assert any(w["value"] == 3 for w in report.witnesses)
    _report("criterion 7", "all three negative controls fail as expected "
                           "with witnesses")


def test_criterion_8_never_optimal(pipeline_q3, pipeline_q5, pipeline_q2_sidon):
    ratios = []
    for _, _, params, _ in (pipeline_q3, pipeline_q5, pipeline_q2_sidon):
        assert params.ratio < 1
        assert params.ratio.denominator >= 1  # exact rational, no floats
        ratios.append(str(params.ratio))
    _report("criterion 8", f"optimality ratios all < 1: {', '.join(ratios)}")
