"""The mutation gate: each mutant of the library must fail its named tests.

A test that no wrong program can fail proves nothing, so each entry of
MUTANTS is a small defect and the tests that must catch it:

    (file under src/, snippet, replacement, test ids)

The snippet must occur in the file exactly once; an entry whose snippet no
longer does is refused, so a refactor that moves the code ports its entry.

Run from anywhere, with pytest installed:

    python tests/mutants.py

The runner copies src/ to a temporary directory and runs the listed tests
on that copy: first unmutated, where every one must pass, then once per
mutant with its replacement made, where every named test must fail.  It
exits 0 when every mutant is caught, 1 otherwise.  pytest does not collect
this file; the runner loads it into each pytest run as a plugin, which
refuses a run whose oocgen is not the copy's.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SUB, _OOC = "oocgen/subspaces.py", "oocgen/ooc.py"
_T_SUB, _T_OOC = "tests/test_subspaces.py::", "tests/test_ooc.py::"
_T_CLI, _T_GOLD = "tests/test_cli.py::", "tests/test_golden.py::"
_T_FIELD = "tests/test_field.py::"
_SIZE_REFUSAL = ('        if size < 0:\n'
                 '            raise OocError(f"size must be >= 0, '
                 'got size={size}")\n')

MUTANTS = [
    # _orbit_proof check (a): the class lookup of each difference always
    # true
    (_SUB, "all(in_u[(x0 + h + zech[(y - x0 + h) % N]) % g]", "all(True",
     [_T_SUB + "test_orbit_proof_fails_on_each_corrupted_family[5-2]",
      _T_SUB + "test_orbit_proof_agrees_with_the_oracle_checks"]),
    # check (a) also takes x0 - x0 = 0, whose class is no class of U
    (_SUB, "for y in word[1:]):", "for y in word):",
     [_T_GOLD + "test_orbit_proof_holds_at_every_golden_code[3-2]",
      _T_GOLD + "test_orbit_proof_holds_at_the_q2_code_files[f32_two_orbit]",
      _T_SUB + "test_construct_sweeps_orbit_pairs_once"]),
    # check (b) without its count test
    (_SUB, "if len(U.classes) + t * size != g or 0 in marks:",
     "if 0 in marks:",
     [_T_SUB + "test_orbit_proof_fails_on_each_corrupted_family[5-2]",
      _T_SUB + "test_orbit_proof_fails_on_each_corrupted_family[7-2]"]),
    # check (b) without its unmarked test
    (_SUB, "if len(U.classes) + t * size != g or 0 in marks:",
     "if len(U.classes) + t * size != g:",
     [_T_SUB + "test_construct_sweeps_every_word_when_the_orbit_proof_fails",
      _T_SUB + "test_orbit_proof_agrees_with_the_oracle_checks"]),
    # build_ooc keeps the two-word report on either condition alone
    (_OOC, "            and _orbit_proof(code, family.cosets)):",
     "            or _orbit_proof(code, family.cosets)):",
     [_T_GOLD + "test_fallback_code_files_sweep_every_word[f64_fallback-30]",
      _T_OOC + "test_verify_oos_stops_once_both_witnesses_are_fixed"
               "[words1-4]",
      _T_SUB + "test_construct_sweeps_every_word_when_the_orbit_proof_fails"]),
    # build_ooc keeps the two-word report without the proof
    (_OOC, "            and _orbit_proof(code, family.cosets)):",
     "            and True):",
     [_T_SUB + "test_construct_sweeps_every_word_when_the_orbit_proof_fails"]),
    # build_ooc takes its report from a one-word prefix
    (_OOC, "verify_oos(sets[:2], lam)", "verify_oos(sets[:1], lam)",
     [_T_SUB + "test_construct_sweeps_orbit_pairs_once",
      _T_GOLD + "test_fallback_code_files_sweep_every_word[f64_fallback-30]",
      _T_OOC + "test_verify_oos_stops_once_both_witnesses_are_fixed"
               "[words0-2]"]),
    # OocParams: the ratio over J + 1
    (_OOC, "Fraction(size, j)", "Fraction(size, j + 1)",
     [_T_OOC + "test_optimality_ratio",
      _T_CLI + "test_bound_with_size_prints_its_line_byte_for_byte",
      _T_CLI + "test_table_prints_its_rows_byte_for_byte"]),
    # OocParams without its negative-size refusal
    (_OOC, _SIZE_REFUSAL, "",
     [_T_CLI + "test_bound_with_size",
      _T_OOC + "test_params_row_refuses_after_johnsons_own_checks"]),
    # OocParams without its zero-J refusal: Fraction(0, 0) escapes
    (_OOC, '        if j == 0:\n'
           '            raise OocError("Johnson bound is zero; ratio '
           'undefined")\n',
     "",
     [_T_CLI + "test_bound_with_size_refuses_a_ratio_over_a_zero_bound",
      _T_OOC + "test_params_row_refuses_after_johnsons_own_checks"]),
    # OocParams refuses the size before J's own checks
    (_OOC, "        j = johnson_bound(n, w, lam)\n" + _SIZE_REFUSAL,
     _SIZE_REFUSAL + "        j = johnson_bound(n, w, lam)\n",
     [_T_CLI + "test_bound_with_size_names_lambda_before_the_size",
      _T_OOC + "test_params_row_refuses_after_johnsons_own_checks"]),
    # _orbit_sweep skips an orbit's own counts when no orbit lies below it
    (_SUB, "        if region:\n", "        if below:\n",
     [_T_SUB + "test_code_min_distance_vs_full_pair_sweep",
      _T_SUB + "test_code_min_distance_vs_pair_loop_on_multi_orbit_codes",
      _T_SUB + "test_stabiliser_orders_match_orbit_size_oracle",
      _T_OOC + "test_params_table_rows_are_the_rows_construct_reports"]),
    # _orbit_sweep drops the q - 1 scalars behind each stabiliser residue
    (_SUB, "orders.append((q - 1) * stab.bit_count())",
     "orders.append(stab.bit_count())",
     [_T_SUB + "test_stabiliser_orders_match_orbit_size_oracle",
      _T_GOLD + "test_orbit_proof_holds_at_every_golden_code[3-2]"]),
    # _orbit_sweep keys a subspace's class count on q^e
    (_SUB, "dims = {(q ** e - 1) // (q - 1): e for e in range(k + 1)}",
     "dims = {q ** e: e for e in range(k + 1)}",
     [_T_SUB + "test_code_min_distance_vs_full_pair_sweep",
      _T_SUB + "test_stabiliser_orders_match_orbit_size_oracle"]),
    # Subspace forms the sums s + el only for the class residues s
    (_SUB, "{add(r + u, el) % g for r in classes for u in units}",
     "{add(r, el) % g for r in classes}",
     [_T_SUB + "test_span_classes_match_the_combination_oracle",
      _T_SUB + "test_span_two_independent"]),
    # Subspace takes an element already spanned into its basis
    (_SUB, "if el < 0 or el % g in classes:", "if el < 0:",
     [_T_SUB + "test_span_reduces_dependent_input",
      _T_SUB + "test_span_classes_match_the_combination_oracle"]),
    # _orbit_proof takes -1 = omega^(N/2) at p = 2, where -1 = 1
    (_SUB, "h = 0 if f.p == 2 else N // 2", "h = N // 2",
     [_T_GOLD + "test_orbit_proof_holds_at_the_q2_code_files[f32_two_orbit]",
      _T_SUB + "test_orbit_checks_agree_with_the_word_sweep[4-2]"]),
    # _orbit_proof takes -1 = 1 at odd p
    (_SUB, "h = 0 if f.p == 2 else N // 2", "h = 0",
     [_T_GOLD + "test_orbit_proof_holds_at_every_golden_code[3-2]",
      _T_SUB + "test_orbit_proof_agrees_with_the_oracle_checks"]),
    # _resultant without the sign (-1)^(deg f deg g) of each swap
    ("oocgen/field.py", "        if m * n % 2:\n"
                        "            res = -res % p\n", "",
     [_T_FIELD + "test_resultant_is_the_norm_and_decides_the_order",
      _T_FIELD + "test_mul_codes_matches_sympy_product_mod_modulus"]),
    # IndexSet keeps a repeated member
    (_OOC, "            if not _increasing(members):\n"
           '                raise OocError("index set repeats a member")\n',
     "",
     [_T_OOC + "test_index_set_with_a_repeated_member_is_refused",
      _T_CLI + "test_verify_oos_set_with_repeated_member_is_data_error"]),
    # _coset_scan shifts one member of every word
    (_SUB, "tuple(sorted([a] + [", "tuple(sorted([(a + 1) % N] + [",
     [_T_OOC + "test_word_counts_are_orbit_counts_plus_one_or_zero[3-2]",
      _T_OOC + "test_params_table_rows_are_the_rows_construct_reports",
      _T_SUB + "test_coset_family_matches_field_oracle[q3k2]"]),
    # _coset_scan leaves its tuples unsorted
    (_SUB, "tuple(sorted([a] + [(a + zech[i - a]) % N for i in span_nz]))",
     "tuple([a] + [(a + zech[i - a]) % N for i in span_nz])",
     [_T_SUB + "test_coset_family_q3",
      _T_SUB + "test_proposition_intersection_bounds",
      _T_SUB + "test_coset_family_matches_field_oracle[q3k2]"]),
    # _BlockStack lays own out at stride n, not 2n
    ("oocgen/kernel.py", "self.own << 2 * n", "self.own << n",
     [_T_OOC + "test_column_counts_yield_the_layout_masks",
      _T_OOC + "test_column_counts_for_every_set_size_to_nine",
      _T_OOC + "test_verify_oos_matches_pair_loop_oracle"]),
]


def pytest_collection_finish(session):
    """In each run the runner starts: refuse an oocgen that is not the
    copy, which pyproject's own pythonpath would otherwise put first."""
    import oocgen
    copy = Path(session.config.getini("pythonpath")[0])
    if copy not in Path(oocgen.__file__).parents:
        pytest.exit(f"oocgen comes from {oocgen.__file__}, not from {copy}",
                    returncode=4)


def _failures(src, tests):
    """The ids of tests that fail on the library at src, run as listed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep
               .join(filter(None, [str(src), str(ROOT / "tests"),
                                   os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
         "-p", "no:cacheprovider", "-p", "mutants", "-o", f"pythonpath={src}",
         *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {run.returncode}:\n{run.stdout}"
                         f"{run.stderr}")
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in run.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.egg-info"))
        every = sorted({t for *_, tests in MUTANTS for t in tests})
        failed = _failures(src, every)
        if failed:
            print("the unmutated copy fails:", *sorted(failed), sep="\n  ")
            return 1
        missed = 0
        for i, (file, snippet, replacement, tests) in enumerate(MUTANTS):
            path = src / file
            clean = path.read_text()
            where = f"mutant {i} ({file}: {snippet.strip().splitlines()[0]})"
            if clean.count(snippet) != 1:
                print(f"{where}: snippet occurs {clean.count(snippet)} "
                      f"times, not once")
                missed += 1
                continue
            path.write_text(clean.replace(snippet, replacement))
            try:
                survivors = sorted(set(tests) - _failures(src, tests))
            finally:
                path.write_text(clean)
            if survivors:
                print(f"{where}: these tests still pass:",
                      *survivors, sep="\n  ")
                missed += 1
            else:
                print(f"{where}: caught by {len(tests)} tests")
        print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
        return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
