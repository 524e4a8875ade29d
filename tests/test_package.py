"""Whole-package properties: import footprint and python -O safety."""

import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import oocgen
from test_golden import ARTEFACTS, GOLDEN

SRC = pathlib.Path(oocgen.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
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
