import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy.sparse.linalg and scipy.sparse.csgraph each add about 0.15 s to
# ``import walkbound``, and scipy.linalg about 0.3 s; the sigma solve, the
# component search and the spectral readings of A are numpy-only so that
# no caller pays it.
_SCRIPT = """
import sys
import numpy as np
from walkbound import (DenseMatrix, characterize_pseudo_regular, decompose,
                       largest_singular, sigma_ratio_estimate)
a = DenseMatrix(np.random.default_rng(0).uniform(size=(300, 300)))
largest_singular(a)
decompose(a)
b = DenseMatrix(np.random.default_rng(1).uniform(size=(60, 60)))
characterize_pseudo_regular(b)
sigma_ratio_estimate(b)
heavy = sorted(m for m in sys.modules if m in ("scipy.sparse.linalg", "scipy.sparse.csgraph")
               or m == "scipy.linalg" or m.startswith("scipy.linalg."))
print(",".join(heavy))
"""


def test_sigma_and_components_import_no_sparse_solvers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
