"""Whole-package properties: import footprint and python -O safety."""

import ast
import os
import pathlib
import subprocess
import sys

import oocgen

SRC = pathlib.Path(oocgen.__file__).parent


def test_import_loads_no_sympy_or_numpy():
    # numpy alone roughly doubles a bare interpreter's peak RSS, so the
    # kernels stay pure Python
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, oocgen, oocgen.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('sympy', 'numpy')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_assert_statements_in_package():
    # python -O strips assert, so no result guard may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
