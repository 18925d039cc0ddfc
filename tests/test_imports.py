import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy.sparse.linalg and scipy.sparse.csgraph each add about 0.15 s to
# ``import walkbound``, and scipy.linalg about 0.3 s; the sigma solve, the
# component search and the spectral readings of A are numpy-only, and a
# coordinate file is analysed with nothing of scipy.sparse beyond its
# arrays and products, so that no caller pays it.
_SCRIPT = """
import os
import sys
import tempfile
import numpy as np
from walkbound import (DenseMatrix, characterize_pseudo_regular, cli, decompose,
                       largest_singular, sigma_ratio_estimate)
a = DenseMatrix(np.random.default_rng(0).uniform(size=(300, 300)))
largest_singular(a)
decompose(a)
b = DenseMatrix(np.random.default_rng(1).uniform(size=(60, 60)))
characterize_pseudo_regular(b)
sigma_ratio_estimate(b)
# A coordinate file stays sparse through every layer of analyze.
rng = np.random.default_rng(2)
rows, cols = np.nonzero(rng.uniform(size=(200, 150)) < 0.05)
lines = ["%%MatrixMarket matrix coordinate real general", f"200 150 {rows.size}"]
lines += [f"{i + 1} {j + 1} {rng.uniform()!r}" for i, j in zip(rows, cols)]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sparse.mtx")
    with open(path, "w") as fh:
        fh.write("\\n".join(lines) + "\\n")
    assert cli.main(["analyze", path, "--json", "--out", os.path.join(tmp, "r.json")]) == 0
heavy = sorted(m for m in sys.modules if m in ("scipy.sparse.linalg", "scipy.sparse.csgraph")
               or m == "scipy.linalg" or m.startswith("scipy.linalg."))
print(",".join(heavy))
"""


# scipy.io alone costs about 0.2 s; only a Matrix Market read imports it,
# and a SparseMatrix imports scipy.sparse, so ``import walkbound`` and a
# CSV analysis load no scipy module at all.
_CSV_SCRIPT = """
import os
import sys
import tempfile
import walkbound
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
from walkbound import cli
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "e1.csv")
    with open(path, "w") as fh:
        fh.write("1,1,0,0\\n1,0,1,0\\n1,0,0,1\\n")
    assert cli.main(["analyze", path, "--json", "--out", os.path.join(tmp, "r.json")]) == 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _imported_parts(tree) -> set:
    """Every dotted part of every name that ``tree`` imports, deferred
    and type-checking imports included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".")}


def test_sigma_and_components_import_no_sparse_solvers():
    assert _run(_SCRIPT) == ""


def test_import_and_csv_analysis_load_no_scipy():
    assert _run(_CSV_SCRIPT) == ""


def test_analysis_imports_no_module_that_reads_contexts():
    # The context sits below every layer that reads it.
    parts = _imported_parts(ast.parse((SRC / "walkbound" / "analysis.py").read_text()))
    assert not parts & {"structure", "classify", "bounds", "report"}


def test_relative_gap_is_the_only_floor_at_one():
    # The tolerance floor, a call max(1.0, ...), has one home:
    # core.relative_gap.  The integer max(1, ...) chunk sizes of mmio are
    # not tolerance floors and do not match.
    found = []
    for path in sorted((SRC / "walkbound").glob("*.py")):
        tree = ast.parse(path.read_text())
        home = range(0)
        if path.name == "core.py":
            fn = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "relative_gap")
            home = range(fn.lineno, fn.end_lineno + 1)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "max" and node.lineno not in home
                  and any(isinstance(arg, ast.Constant) and type(arg.value) is float
                          and arg.value == 1.0 for arg in node.args)]
    assert found == []


def test_argument_rules_live_in_core():
    # check_order and check_tol are each defined once, in core, so the
    # solver takes its argument checks from core and nothing from walks.
    homes = sorted((node.name, path.name)
                   for path in (SRC / "walkbound").glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and node.name in ("check_order", "check_tol"))
    assert homes == [("check_order", "core.py"), ("check_tol", "core.py")]
    spectral = ast.parse((SRC / "walkbound" / "spectral.py").read_text())
    assert "walks" not in _imported_parts(spectral)
