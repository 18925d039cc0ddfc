import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy.sparse.linalg and scipy.sparse.csgraph each add about 0.15 s to
# ``import walkbound``; the sigma solve and the component search are
# numpy-only so that no caller pays it.
_SCRIPT = """
import sys
import numpy as np
from walkbound import DenseMatrix, decompose, largest_singular
a = DenseMatrix(np.random.default_rng(0).uniform(size=(300, 300)))
largest_singular(a)
decompose(a)
heavy = sorted({"scipy.sparse.linalg", "scipy.sparse.csgraph"} & set(sys.modules))
print(",".join(heavy))
"""


def test_sigma_and_components_import_no_sparse_solvers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
