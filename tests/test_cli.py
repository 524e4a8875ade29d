"""End-to-end CLI behaviour, file formats, exit codes and determinism."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oocgen import cli
from oocgen.cli import main
from conftest import bit_level_ooc_ok, canonical_sidon_f64
from oocgen import CyclicSubspaceCode, field_create, subspace_to_dict


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
    # as a frozenset, [0, 0, 1] would silently verify as {0, 1}
    path = tmp_path / "rep.oos.json"
    path.write_text(json.dumps({"n": 7, "sets": [[0, 0, 1], [2, 4]]}))
    assert main(["verify", str(path), "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "OOS file: set 0 repeats a member" in captured.err


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


def test_construct_q2_is_usage_error(capsys):
    assert main(["construct", "--q", "2", "--k", "2", "--s", "1"]) == 2
    assert "q >= 3" in capsys.readouterr().err


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


def test_bound_with_size(capsys):
    assert main(["bound", "63", "8", "2", "--size", "7"]) == 0
    assert "7/11" in capsys.readouterr().out
    assert main(["bound", "10", "3", "1", "--size", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "size must be >= 0" in captured.err


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
    for spec in ["3", "3,", "x,2", "3,2,1"]:  # not of the form q,k
        assert main(["table", "3,2", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"table spec {spec!r} is not of the form q,k" in captured.err


def test_out_of_memory_is_data_error(monkeypatch, capsys):
    def exhausted(q, m):
        raise MemoryError
    monkeypatch.setattr(cli, "field_for_prime_power", exhausted)
    assert main(["field-info", "--q", "3", "--m", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory (")


def test_field_info(capsys):
    assert main(["field-info", "--q", "3", "--m", "4"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["p"] == 3 and info["e"] == 4 and info["N"] == 80
    assert info["subfield_orders"] == [3, 9, 81]


def test_construct_json_summary(tmp_path, capsys):
    out = tmp_path / "j"
    rc = main(["construct", "--q", "3", "--k", "2", "--s", "1",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["params"]["n"] == 80 and blob["report"]["pass"]
