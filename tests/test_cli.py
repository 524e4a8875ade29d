"""End-to-end CLI behaviour, file formats, exit codes and determinism."""

import hashlib
import itertools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oocgen import cli, field, ooc
from oocgen.cli import main
from conftest import bit_level_ooc_ok, canonical_sidon_f64, poly_exp_table
from oocgen import (CyclicSubspaceCode, code_from_dict, construct_g,
                    field_create, field_from_descriptor, subspace_to_dict)


@pytest.fixture(scope="module")
def q3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("q3") / "run"
    code = main(["construct", "--q", "3", "--k", "2", "--s", "1",
                 "--out", str(out)])
    assert code == 0
    return out


def test_construct_summary(capsys, tmp_path):
    out = tmp_path / "x"
    rc = main(["construct", "--q", "3", "--k", "2", "--s", "1",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "(80,9,3) size=4" in captured.out
    assert "pass" in captured.out


def test_construct_writes_all_files(q3_run):
    for suffix in [".ooc", ".oos.json", ".code.json", ".report.json"]:
        assert (q3_run.parent / (q3_run.name + suffix)).exists()


def test_construct_is_deterministic(q3_run, tmp_path):
    out2 = tmp_path / "again"
    assert main(["construct", "--q", "3", "--k", "2", "--s", "1",
                 "--out", str(out2)]) == 0
    for suffix in [".ooc", ".oos.json", ".code.json", ".report.json"]:
        a = (q3_run.parent / (q3_run.name + suffix)).read_bytes()
        b = (out2.parent / (out2.name + suffix)).read_bytes()
        assert a == b, f"{suffix} differs between runs"


def test_ooc_file_shape(q3_run):
    lines = (q3_run.parent / (q3_run.name + ".ooc")).read_text().splitlines()
    assert lines[0] == "# n=80 w=9 lambda=3 size=4"
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line) == 80 and line.count("1") == 9


def test_verify_pass(q3_run):
    assert main(["verify", str(q3_run) + ".ooc"]) == 0


def test_verify_oos_json_with_lambda(q3_run):
    assert main(["verify", str(q3_run) + ".oos.json", "--lambda", "3"]) == 0


def test_verify_fails_with_tighter_lambda(q3_run, capsys):
    rc = main(["verify", str(q3_run) + ".ooc", "--lambda", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    report = json.loads(captured.out)
    assert not report["pass"]
    assert max(report["max_auto"], report["max_cross"]) == 3


def test_verify_empty_file_is_data_error(tmp_path):
    empty = tmp_path / "empty.ooc"
    empty.write_text("")
    assert main(["verify", str(empty)]) == 2


@pytest.mark.parametrize("pad", [" ", "\n", "\t", " \n\t\n"])
def test_verify_oos_json_after_leading_whitespace(tmp_path, capsys, pad):
    blob = json.dumps({"n": 7, "sets": [[0, 1, 3]]})
    plain, padded = tmp_path / "plain.oos.json", tmp_path / "pad.oos.json"
    plain.write_text(blob)
    padded.write_text(pad + blob)
    assert main(["verify", str(plain), "--lambda", "1"]) == 0
    expected = capsys.readouterr()
    assert main(["verify", str(padded), "--lambda", "1"]) == 0
    assert capsys.readouterr() == expected


def test_verify_bits_file_after_leading_blank_lines(tmp_path, capsys):
    path = tmp_path / "blank.ooc"
    path.write_text("\n  \n\t\n# n=7 w=3 lambda=1 size=1\n1101000\n")
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_verify_oos_without_lambda_is_usage_error(q3_run):
    assert main(["verify", str(q3_run) + ".oos.json"]) == 2


@pytest.mark.parametrize("blob", [{"sets": [[0, 1]]}, {"n": 7},
                                  {"n": 7, "sets": [3]},
                                  {"n": True, "sets": [[0]]}])
def test_verify_oos_missing_or_bad_key_is_data_error(tmp_path, capsys, blob):
    path = tmp_path / "bad.oos.json"
    path.write_text(json.dumps(blob))
    assert main(["verify", str(path), "--lambda", "1"]) == 2
    assert "OOS file" in capsys.readouterr().err


def test_verify_oos_set_with_repeated_member_is_data_error(tmp_path,
                                                         capsys):
    # [0, 0, 1] is refused, not verified as {0, 1}, and the message names
    # the set
    path = tmp_path / "rep.oos.json"
    path.write_text(json.dumps({"n": 7, "sets": [[0, 0, 1], [2, 4]]}))
    assert main(["verify", str(path), "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "OOS file: set 0 repeats a member" in captured.err


def test_verify_oos_set_with_member_out_of_range_names_the_set(tmp_path,
                                                               capsys):
    path = tmp_path / "range.oos.json"
    path.write_text(json.dumps({"n": 5, "sets": [[0, 1], [2, 7]]}))
    assert main(["verify", str(path), "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OOS file: set 1 member out of range\n"


def _deep_json(tmp_path):
    # 200 000 nested lists: json's decoder gives up with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"n": 5, "sets": ' + "[" * 200_000 + "]" * 200_000
                    + "}")
    return path


def test_verify_deeply_nested_json_is_data_error(tmp_path, capsys):
    path = _deep_json(tmp_path)
    assert main(["verify", str(path), "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


def test_construct_deeply_nested_code_file_is_data_error(tmp_path, capsys):
    path = _deep_json(tmp_path)
    out = tmp_path / "out"
    assert main(["construct", "--code", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: JSON nested too deeply\n"
    assert list(tmp_path.iterdir()) == [path]


def test_verify_oos_modulus_too_large_is_data_error(tmp_path, capsys):
    # 1 << 10**20 fails at once; a modulus that would really be allocated
    # is not tried here
    path = tmp_path / "huge.oos.json"
    path.write_text('{"n": 100000000000000000000, "sets": [[0, 1]]}')
    assert main(["verify", str(path), "--lambda", "1"]) == 2
    assert capsys.readouterr().err == ("error: modulus n = "
                                       "100000000000000000000 is too large "
                                       "to verify\n")


@pytest.mark.parametrize("name, text, message", [
    ("empty.oos.json", '{"n": 7, "sets": []}', "empty family"),
    ("weights.oos.json", '{"n": 7, "sets": [[0, 1], [2]]}',
     "sets 0 and 1 have different weights (2 vs 1)"),
    ("mixed.ooc", "# lambda=1\n11000\n110000\n",
     "codewords have mixed lengths"),
])
def test_verify_family_refusal_is_data_error(tmp_path, capsys, name, text,
                                             message):
    # the whole of stderr is the one-line message: no traceback
    path = tmp_path / name
    path.write_text(text)
    assert main(["verify", str(path), "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_duplicate_words_fail_at_tau_zero(tmp_path, capsys):
    # {0, 1, 3} is a (7, 3, 1) difference set, so only the repeat breaks
    # lambda = 1: its cross-correlation at tau = 0 is the weight
    path = tmp_path / "dup.ooc"
    path.write_text("# n=7 w=3 lambda=1 size=2\n1101000\n1101000\n")
    assert main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["max_auto"] == 1 and not report["pass"]
    assert report["witnesses"][1] == {"kind": "cross", "words": [0, 1],
                                      "tau": 0, "value": 3}


def test_verify_negative_lambda_is_usage_error(q3_run, tmp_path, capsys):
    assert main(["verify", str(q3_run) + ".ooc", "--lambda", "-1"]) == 2
    path = tmp_path / "neg.ooc"
    path.write_text("# n=7 w=3 lambda=-3 size=1\n1101000\n")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("lambda must be >= 0") == 2


@pytest.mark.parametrize("header,message", [
    ("# n=7 w=3 lambda=x size=1", "'lambda=x'"),
    ("# n=seven w=3 lambda=1 size=1", "'n=seven'"),
    ("# n=8 w=3 lambda=1 size=1", "n=8"),
    ("# n=7 w=5 lambda=1 size=9", "w=5"),
    ("# n=7 w=3 lambda=1 size=9", "size=9"),
    ("# n=7 w=three lambda=1 size=1", "'w=three'"),
    ("# n=7 w=3 lambda=1 size=1.0", "'size=1.0'"),
])
def test_verify_bad_bits_header_is_data_error(tmp_path, capsys, header,
                                              message):
    path = tmp_path / "bad.ooc"
    path.write_text(header + "\n1101000\n")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bits header" in captured.err and message in captured.err


def test_construct_failed_write_leaves_no_files(tmp_path, monkeypatch):
    def write_json(obj, path):
        if ".report.json" in path:  # the last of the four writes
            raise OSError("disk full")
        real_write_json(obj, path)

    real_write_json = cli.write_json
    monkeypatch.setattr(cli, "write_json", write_json)
    assert main(["construct", "--q", "3", "--k", "2", "--s", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert list(tmp_path.iterdir()) == []


# A changed header entry: left out, another integer, or a token that is not
# an integer.
_ENTRY = st.one_of(st.none(), st.integers(-1, 9),
                   st.sampled_from(["x", "", "1.5", "0x3"]))


@st.composite
def _bits_file(draw):
    """(header, words, flaw, text) of a small bits file with at most one
    flaw: a word of another weight or length, a bad line, or one header
    entry changed."""
    n = draw(st.integers(1, 8))
    w = draw(st.integers(0, n))
    words = [[1 if i in ones else 0 for i in range(n)]
             for ones in draw(st.lists(st.sets(st.integers(0, n - 1),
                                               min_size=w, max_size=w),
                                       min_size=0, max_size=4))]
    flaw = draw(st.sampled_from(["none", "none", "none", "weight", "length",
                                 "char", "header"]))
    if words and flaw == "weight":
        words[-1][0] ^= 1
    elif words and flaw == "length":
        words[-1].append(0)
    lines = ["".join(map(str, word)) for word in words]
    if flaw == "char":
        lines.append("10x1")
    header = {"n": n, "w": w, "size": len(words),
              "lambda": draw(st.integers(0, 3))}
    if flaw == "header":
        key = draw(st.sampled_from(sorted(header)))
        header[key] = draw(_ENTRY)
        if header[key] is None:
            del header[key]
    head = " ".join(f"{key}={val}" for key, val in header.items())
    return header, words, flaw, "\n".join([f"# {head}"] + lines) + "\n"


def _expected_exit(header, words, flaw):
    """0 or 1 from the bit-level oracle for a well-formed file, else 2."""
    if flaw == "char" or not words:
        return 2
    if any(type(v) is not int for v in header.values()):
        return 2
    if (len({len(x) for x in words}) != 1
            or len({sum(x) for x in words}) != 1):
        return 2
    actual = {"n": len(words[0]), "w": sum(words[0]), "size": len(words)}
    if any(header.get(key, v) != v for key, v in actual.items()):
        return 2
    lam = header.get("lambda")
    if lam is None or lam < 0:
        return 2
    return 0 if bit_level_ooc_ok(words, lam) else 1


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_bits_file())
def test_verify_fuzzed_bits_file_exit_code(tmp_path, drawn):
    header, words, flaw, text = drawn
    path = tmp_path / "fuzz.ooc"
    path.write_text(text)
    assert main(["verify", str(path)]) == _expected_exit(header, words, flaw)


def test_construct_q2_is_usage_error(tmp_path, capsys):
    assert main(["construct", "--q", "2", "--k", "2", "--s", "1",
                 "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert "q >= 3" in err and "use --code" in err
    assert list(tmp_path.iterdir()) == []


def test_construct_bad_s_is_usage_error(capsys):
    assert main(["construct", "--q", "3", "--k", "2", "--s", "2"]) == 2
    assert main(["construct", "--q", "3", "--k", "2", "--s", "-1"]) == 2
    assert "s >= 1" in capsys.readouterr().err


def test_construct_from_code_file(tmp_path, capsys):
    # generic path: a user-supplied single-orbit code over F_64
    U = canonical_sidon_f64()
    code = CyclicSubspaceCode(U.field, 2, (U,))
    path = tmp_path / "sidon.json"
    path.write_text(json.dumps(code.to_dict()))
    out = tmp_path / "fromfile"
    rc = main(["construct", "--code", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "(63,8,2) size=7" in captured.out
    assert main(["verify", str(out) + ".ooc"]) == 0


def _sidon_code_dict():
    U = canonical_sidon_f64()
    return CyclicSubspaceCode(U.field, 2, (U,)).to_dict()


@pytest.mark.parametrize("extra", [["--q", "3"], ["--k", "2"], ["--s", "1"],
                                   ["--q", "3", "--k", "2", "--s", "1"]])
def test_construct_code_file_with_q_k_s_is_usage_error(tmp_path, capsys,
                                                        extra):
    # --code and --q/--k/--s name two different codes; neither may be
    # silently dropped
    path = tmp_path / "code.json"
    path.write_text(json.dumps(_sidon_code_dict()))
    out = tmp_path / "out"
    assert main(["construct", "--code", str(path), *extra,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--code" in err and extra[0] in err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("key", ["field", "orbits", "ground_q", "basis"])
def test_construct_code_file_missing_key_is_data_error(tmp_path, capsys, key):
    code = _sidon_code_dict()
    if key in code:
        del code[key]
    else:
        del code["orbits"][0][key]
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code))
    assert main(["construct", "--code", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("e", "2"), ("modulus", 7),
                                       ("modulus", ["2", "2", "1"]),
                                       ("omega_index", "2"),
                                       ("omega_index", True), ("p", "2")])
def test_construct_code_file_bad_field_entry_is_data_error(tmp_path, capsys,
                                                          key, value):
    code = _sidon_code_dict()
    code["field"][key] = value
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code))
    assert main(["construct", "--code", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "field descriptor" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("bases,message", [
    ([(2, []), (2, [])], "not pairwise disjoint"),   # two orbits of {0}
    ([(2, [])], "undefined"),                        # one orbit of {0}
    ([(2, [0, 1, 2, 3, 4, 5])], "undefined"),        # the whole of F_64
    # two dimension-2 orbits, one over F_2 and one over F_4
    ([(2, [0, 1]), (4, [0, 1])], "ground fields F_2 and F_4"),
    ([(4, [0, 1]), (2, [0, 1])], "ground fields F_4 and F_2"),
])
def test_construct_code_file_degenerate_orbits_are_data_error(
        tmp_path, capsys, bases, message):
    F64 = field_create(2, 6)
    code = {"field": F64.descriptor(),
            "orbits": [{"ground_q": q, "basis": b} for q, b in bases]}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code))
    assert main(["construct", "--code", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def _short_orbit_code_dicts():
    """Two code files with a short orbit, one whose stabiliser is larger
    than F_3^*: U = F_9 inside F_81 alone, and construct_g(3, 3, 1)'s orbit
    together with omega·F_27 inside F_729 (F_27^* is the multiples of 28)."""
    F81 = field_create(3, 4)
    alone = {"field": F81.descriptor(),
             "orbits": [{"ground_q": 3, "basis": [0, 10]}]}
    paired = construct_g(3, 3, 1).to_dict()
    paired["orbits"].append({"ground_q": 3, "basis": [1, 29, 57]})
    return [(alone, "orbit 0 is short: stabiliser of order 8"),
            (paired, "orbit 1 is short: stabiliser of order 26")]


@pytest.mark.parametrize("case", [0, 1], ids=["F9_in_F81", "q3k3_plus_F27"])
def test_construct_code_file_short_orbit_is_data_error(tmp_path, capsys,
                                                       case):
    # the distance and disjointness checks pass; the sweep would fail at
    # max_cross = w, because two cosets of a short orbit are cyclic shifts
    # of each other
    code, message = _short_orbit_code_dicts()[case]
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code))
    assert main(["construct", "--code", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "the construction needs q - 1 = 2" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("p,e,message", [(4, 6, "p = 4 is not prime"),
                                         (1, 100, "p = 1 is not prime"),
                                         (2 ** 61 - 1, 1, "is too large")])
def test_construct_code_file_bad_field_order_is_data_error(tmp_path, capsys,
                                                          p, e, message):
    code = _sidon_code_dict()
    code["field"]["p"], code["field"]["e"] = p, e
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code))
    assert main(["construct", "--code", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_construct_code_file_index_out_of_range_is_data_error(tmp_path):
    code = _sidon_code_dict()
    code["orbits"][0]["basis"][0] = 999  # F_64 has log indices -1..62
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code))
    out = tmp_path / "out"
    assert main(["construct", "--code", str(path), "--out", str(out)]) == 2
    assert not (tmp_path / "out.ooc").exists()


def test_bound_command(capsys):
    assert main(["bound", "63", "8", "2"]) == 0
    assert capsys.readouterr().out.strip() == "11"
    assert main(["bound", "8", "4", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # a 607-digit bound, well inside the digit budget
    assert main(["bound", "1000000", "1000", "200"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 608 and hashlib.sha256(out.encode()).hexdigest() == (
        "dadffa279ee827003c3a6201c55275c0260a1f8fd3f6b265a4b0e6ff32a41a9b")
    # n < 2w: an 82-digit bound, and one of lambda = 999998 small steps
    assert main(["bound", "1000", "600", "300"]) == 0
    assert capsys.readouterr().out == (
        "63043902904811667649346277681544195240056359755686286938152371"
        "94173791996528283639\n")
    assert main(["bound", "1000000", "999999", "999998"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_bound_with_size(capsys):
    assert main(["bound", "63", "8", "2", "--size", "7"]) == 0
    assert "7/11" in capsys.readouterr().out
    assert main(["bound", "10", "3", "1", "--size", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "size must be >= 0" in captured.err


def test_bound_with_size_prints_its_line_byte_for_byte(capsys):
    assert main(["bound", "63", "8", "2", "--size", "7"]) == 0
    assert capsys.readouterr().out == "J(63,8,2) = 11  ratio = 7/11\n"


def test_bound_with_size_refuses_a_ratio_over_a_zero_bound(capsys):
    # J(3,3,0) = 0, so size/J is undefined: a data error, not a traceback
    assert main(["bound", "3", "3", "0", "--size", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Johnson bound is zero; ratio undefined\n"


def test_bound_with_size_names_lambda_before_the_size(capsys):
    # (n, w, lambda) are checked before the size
    assert main(["bound", "8", "4", "5", "--size", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lambda must be < w, got lambda=5, w=4\n"


def test_each_row_computes_johnson_once(monkeypatch, tmp_path):
    calls, bound = [], ooc.johnson_bound

    def counted(n, w, lam):
        calls.append((n, w, lam))
        return bound(n, w, lam)

    monkeypatch.setattr(ooc, "johnson_bound", counted)
    monkeypatch.setattr(cli, "johnson_bound", counted)
    assert main(["construct", "--q", "3", "--k", "2", "--s", "1",
                 "--out", str(tmp_path / "x")]) == 0
    assert calls == [(80, 9, 3)]
    calls.clear()
    assert main(["table", "3,2", "5,2"]) == 0
    assert calls == [(80, 9, 3), (624, 25, 5)]
    calls.clear()
    assert main(["bound", "63", "8", "2", "--size", "7"]) == 0
    assert calls == [(63, 8, 2)]


def test_bound_past_the_digit_budget_is_data_error(capsys):
    # each step multiplies the running value by about 10^6, so it passes
    # the budget long before lambda = 10^5 steps
    assert main(["bound", "1000000000000", "1000000", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "J(1000000000000,1000000,100000) is too large" in captured.err


def test_bound_with_n_below_2w_refuses_lambda_past_the_step_limit(capsys):
    # n < 2w keeps the running value small, so only lambda bounds the loop
    limit = ooc._JOHNSON_STEPS
    n, w = limit + 3, limit + 2
    assert main(["bound", str(n), str(w), str(limit)]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["bound", str(n), str(w), str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: J({n},{w},{limit + 1}) takes lambda = "
                            f"{limit + 1} steps, above the limit of 2^20 = "
                            f"{limit} when n < 2w\n")


def test_bound_rejects_lam_ge_w(capsys):
    assert main(["bound", "8", "4", "5"]) == 2
    assert main(["bound", "0", "0", "-1"]) == 2
    assert main(["bound", "10", "3", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_table_command(capsys):
    assert main(["table", "3,2", "5,2"]) == 0
    out = capsys.readouterr().out
    assert "80" in out and "624" in out
    for spec in ["2,2", "3,1", "6,2"]:  # outside construct_g's domain
        assert main(["table", "3,2", spec]) == 2
        assert capsys.readouterr().out == ""
    assert main(["table", "2,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q >= 3" in captured.err and "oocgen construct" in captured.err
    for spec in ["3", "3,", "x,2", "3,2,1"]:  # not of the form q,k
        assert main(["table", "3,2", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"table spec {spec!r} is not of the form q,k" in captured.err


def test_table_prints_its_rows_byte_for_byte(capsys):
    assert main(["table", "3,2", "4,2", "5,2", "7,2"]) == 0
    assert capsys.readouterr().out == (
        "   q   k          n      w  lambda   size      johnson ratio\n"
        "   3   2         80      9       3      4          145 4/145\n"
        "   4   2        255     16       4      5         7400 1/1480\n"
        "   5   2        624     25       5     12       701469 4/233823\n"
        "   7   2       2400     49       7     24  24497168350 "
        "12/12248584175\n")


def test_out_of_memory_is_data_error(monkeypatch, capsys):
    def exhausted(q, m):
        raise MemoryError
    # field-info imports field_for_prime_power from oocgen.field when it runs
    monkeypatch.setattr(field, "field_for_prime_power", exhausted)
    assert main(["field-info", "--q", "3", "--m", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory (")


def test_field_info(capsys):
    assert main(["field-info", "--q", "3", "--m", "4"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["p"] == 3 and info["e"] == 4 and info["N"] == 80
    assert info["subfield_orders"] == [3, 9, 81]


@pytest.mark.parametrize("q,k", [(3, 4), (9, 2), (5, 3), (11, 2)])
def test_change_of_primitive_element_gives_the_same_code(tmp_path, capsys,
                                                        q, k):
    # omega' = omega^u names each element omega^b as omega'^(b u^-1): the
    # same subspaces, over a field rebuilt for a non-canonical generator,
    # whose cosets are scanned in another order
    assert main(["construct", "--q", str(q), "--k", str(k), "--s", "1",
                 "--out", str(tmp_path / "old"), "--format", "json"]) == 0
    before = json.loads(capsys.readouterr().out)
    blob = json.loads((tmp_path / "old.code.json").read_text())
    f = field_from_descriptor(blob["field"])
    u = next(u for u in itertools.count(7) if math.gcd(u, f.N) == 1)
    u_inv = pow(u, -1, f.N)
    blob["field"]["omega_index"] = f.pow_code(f.omega_code, u)
    for orbit in blob["orbits"]:
        orbit["basis"] = [b * u_inv % f.N for b in orbit["basis"]]
    (tmp_path / "in.json").write_text(json.dumps(blob))
    assert main(["construct", "--code", str(tmp_path / "in.json"),
                 "--out", str(tmp_path / "new"), "--format", "json"]) == 0
    after = json.loads(capsys.readouterr().out)

    assert after["params"]["lambda"] == before["params"]["lambda"]
    for key in ("max_auto", "max_cross"):
        assert after["report"][key] == before["report"][key]
    old_code, new_code = (
        code_from_dict(json.loads((tmp_path / f"{run}.code.json")
                                  .read_text())) for run in ("old", "new"))
    g = new_code.field
    assert g.omega_code != f.omega_code
    assert tuple(g.zech) == poly_exp_table(g)[2]
    assert new_code.min_distance == old_code.min_distance

    # each new word is u^-1 times an old word, up to a shift by a multiple
    # of N / (q - 1): the scan may pick another F_q^*-multiple of a coset
    old_words, new_words = (
        [frozenset(s) for s in json.loads((tmp_path / f"{run}.oos.json")
                                          .read_text())["sets"]]
        for run in ("old", "new"))
    assert len(new_words) == len(old_words)
    matched = set()
    for word in new_words:
        found = [old for step in range(0, f.N, f.N // (q - 1))
                 if (old := frozenset(u * (x - step) % f.N for x in word))
                 in old_words]
        assert len(found) == 1
        matched.add(found[0])
    assert matched == set(old_words)


def test_construct_json_summary(tmp_path, capsys):
    out = tmp_path / "j"
    rc = main(["construct", "--q", "3", "--k", "2", "--s", "1",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["params"]["n"] == 80 and blob["report"]["pass"]
