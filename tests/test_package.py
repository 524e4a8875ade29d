"""Whole-package properties: import footprint and python -O safety."""

import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import oocgen
from test_golden import ARTEFACTS, GOLDEN

SRC = pathlib.Path(oocgen.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PIPELINES = PERFBENCH / "pipelines.py"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return env


def test_import_loads_no_sympy_or_numpy():
    # numpy alone roughly doubles a bare interpreter's peak RSS, so the
    # kernels stay pure Python
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, oocgen, oocgen.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('sympy', 'numpy')))"],
        env=_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses_or_fractions():
    # each costs milliseconds on every process start: the package's
    # classes are plain, and Fraction is imported where a ratio is made
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import oocgen.cli; "
         "print(sorted(m for m in set(sys.modules) - before if m in "
         "('dataclasses', 'fractions', 'decimal', 'inspect')))"],
        env=_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _loads(code, *argv):
    """Run code in a fresh interpreter, with `before` the modules loaded at
    its start, and return the `out` it sets."""
    run = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; before = set(sys.modules)\n" + code +
         "\nprint(json.dumps(out))", *argv],
        env=_env(), capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_bare_import_loads_no_submodule():
    # the package resolves its names on first use, so importing it compiles
    # one small file and none of the layers, nor json or array
    out = _loads("import oocgen\n"
                 "new = set(sys.modules) - before\n"
                 "out = [sorted(m for m in new if m.startswith('oocgen')),\n"
                 "       sorted(new & {'json', 'array'})]")
    assert out == [["oocgen"], []]


@pytest.mark.parametrize("argv", [["verify", "tiny.ooc"],
                                  ["bound", "63", "8", "2"]])
def test_verify_and_bound_load_no_field_or_subspaces(tmp_path, argv):
    # checking a file needs the OOC layer and its counting kernel only
    (tmp_path / "tiny.ooc").write_text("# n=7 w=3 lambda=1 size=1\n"
                                       "1101000\n")
    out = _loads("import contextlib, io\n"
                 "from oocgen import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main(sys.argv[1:])\n"
                 "out = [code, sorted(m for m in sys.modules\n"
                 "                    if m.startswith('oocgen'))]",
                 *[str(tmp_path / a) if a.endswith(".ooc") else a
                   for a in argv])
    assert out == [0, ["oocgen", "oocgen.cli", "oocgen.kernel",
                       "oocgen.ooc"]]


def test_public_names_are_the_layers_own_objects():
    # each name of __all__, looked up lazily in a fresh interpreter, is the
    # object its defining layer holds, and dir() lists it
    out = _loads(
        "import oocgen\n"
        "out = {}\n"
        "for name in oocgen.__all__:\n"
        "    obj = getattr(oocgen, name)\n"
        "    home = obj.__module__\n"
        "    out[name] = [home, obj is getattr(sys.modules[home], name),\n"
        "                 name in dir(oocgen)]")
    assert sorted(out) == sorted([
        "ExtensionField", "FieldError", "field_create",
        "field_from_descriptor", "field_for_prime_power",
        "factor_prime_power", "CosetFamily", "CyclicSubspaceCode",
        "Subspace", "SubspaceError", "build_coset_family", "code_from_dict",
        "code_min_distance", "construct_g", "construct_w",
        "coset_representatives", "subspace_to_dict", "IndexSet",
        "OocCode", "OocError", "OocParams", "VerificationError",
        "VerificationReport", "build_ooc", "johnson_bound",
        "optimality_ratio", "params_table", "s_of_w", "verify_oos"])
    for name, (module, same, listed) in out.items():
        assert module in ("oocgen.field", "oocgen.subspaces", "oocgen.ooc")
        assert same and listed, name


def test_submodules_resolve_after_a_bare_import():
    out = _loads("import oocgen\n"
                 "out = [getattr(oocgen, m).__name__ for m in\n"
                 "       ('field', 'subspaces', 'ooc', 'cli')]")
    assert out == ["oocgen.field", "oocgen.subspaces", "oocgen.ooc",
                   "oocgen.cli"]


def test_unknown_name_is_an_attribute_error_that_loads_nothing():
    out = _loads("import oocgen\n"
                 "try:\n"
                 "    oocgen.difference_counts\n"
                 "    error = None\n"
                 "except AttributeError as exc:\n"
                 "    error = str(exc)\n"
                 "out = [error, hasattr(oocgen, 'difference_counts'),\n"
                 "       sorted(m for m in sys.modules\n"
                 "              if m.startswith('oocgen'))]")
    assert out == ["module 'oocgen' has no attribute 'difference_counts'",
                   False, ["oocgen"]]


def test_cli_under_python_O_writes_golden_files(tmp_path):
    # python -O strips assert; the construct and verify runs must not
    # depend on one
    cli = [sys.executable, "-O", "-c", "from oocgen.cli import run; run()"]
    subprocess.run(cli + ["construct", "--q", "3", "--k", "2", "--s", "1"],
                   cwd=tmp_path, env=_env(), capture_output=True, check=True)
    digests = [hashlib.sha256((tmp_path / f"ooc_out.{a}").read_bytes())
               .hexdigest() for a in ARTEFACTS]
    assert digests == GOLDEN[(3, 2)]
    verify = subprocess.run(cli + ["verify", "ooc_out.ooc"], cwd=tmp_path,
                            env=_env(), capture_output=True)
    assert verify.returncode == 0


def test_field_info_refuses_a_huge_prime_field_at_once():
    # q = 2^61 - 1 is prime, but the order limit refuses it before any
    # factoring, table or modulus search
    run = subprocess.run(
        [sys.executable, "-c", "from oocgen.cli import run; run()",
         "field-info", "--q", str(2 ** 61 - 1), "--m", "1"],
        env=_env(), capture_output=True, text=True, timeout=10)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "is too large" in run.stderr and "bytes" in run.stderr


@pytest.mark.parametrize("spec", ["1009,2", "1000003,2"])
def test_table_refuses_a_huge_johnson_bound_at_once(spec):
    # J has thousands of digits at lambda = 1009 and would take minutes to
    # reach at lambda = 1000003; both are refused before the header prints
    run = subprocess.run(
        [sys.executable, "-c", "from oocgen.cli import run; run()",
         "table", spec], env=_env(), capture_output=True, text=True,
        timeout=10)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "is too large" in run.stderr and "digits" in run.stderr


def test_bound_with_n_below_2w_refuses_a_huge_lambda_at_once():
    # with n < 2w the running value stays small, so the digit budget never
    # ends the loop: lambda = 999999998 steps are refused before they start
    run = subprocess.run(
        [sys.executable, "-c", "from oocgen.cli import run; run()",
         "bound", "1000000000", "999999999", "999999998"], env=_env(),
        capture_output=True, text=True, timeout=10)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "lambda = 999999998 steps" in run.stderr


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # under the project's warning filters a failing @given test must fail
    # as a test, not end the session with INTERNALERROR before the rest run
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_probe.py"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_no_assert_statements_in_package():
    # python -O strips assert, so no result guard may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_pipelines_run_on_the_library(tmp_path):
    # the benchmark harness imports and calls library names; a deletion
    # that breaks one must fail here, not only in the harness's self-test
    expected = json.loads((PERFBENCH / "expected.json").read_text())["design"]
    for mode in (["trace", "construct", "3", "2", "1", "spans.json"],
                 ["trace", "verify", "out.ooc", "spans2.json"],
                 ["run", "design", "3", "2", "1"],
                 ["run", "design", "3", "5", "1"],
                 ["cli", "spans3.json", "construct", "--q", "3", "--k", "2",
                  "--s", "1", "--out", "c"]):
        run = subprocess.run([sys.executable, str(PIPELINES), *mode],
                             cwd=tmp_path, env=_env(), capture_output=True,
                             text=True)
        assert run.returncode == 0, (mode, run.stderr)
        if mode[:2] == ["run", "design"]:
            # the design workload's summary, members hash included
            assert json.loads(run.stdout) == expected[",".join(mode[2:])]
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["result"]["sha256"] == GOLDEN[(3, 2)]
    cli_run = json.loads((tmp_path / "spans3.json").read_text())["result"]
    assert cli_run["exit"] == 0
