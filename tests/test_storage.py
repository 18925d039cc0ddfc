"""Dense and sparse storage give the same analysis.

Each matrix is written twice, as an array Matrix Market file (read into a
DenseMatrix) and as a coordinate one (read into a SparseMatrix), and the
command line runs on both.  Every boolean, string, integer and index list
of the two outputs must match, and every float must agree to 1e-12
relative to max(|x|, sigma).
"""

import json

import numpy as np
import pytest
import scipy.sparse

from walkbound import (
    DenseMatrix,
    SparseMatrix,
    characterize_pseudo_regular,
    cli,
    connectivity_via_powers,
    hermitian_eigen,
    read_matrix,
    sigma_ratio_estimate,
    singular_multiset_check,
    singular_values,
    write_matrix,
)
from walkbound.core import col_sums, row_sums

RTOL = 1e-12


def _coordinate(entries, field="real", symmetry="general", shape=None):
    """Coordinate Matrix Market text listing ``entries`` as (i, j, value)
    with 0-based indices; values may be complex, or absent for a pattern."""
    m, n = shape
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", f"{m} {n} {len(entries)}"]
    for i, j, *value in entries:
        if field == "pattern":
            lines.append(f"{i + 1} {j + 1}")
        elif field == "complex":
            z = complex(value[0])
            lines.append(f"{i + 1} {j + 1} {z.real!r} {z.imag!r}")
        else:
            lines.append(f"{i + 1} {j + 1} {float(value[0])!r}")
    return "\n".join(lines) + "\n"


def _entries(a: np.ndarray):
    return [(i, j, a[i, j]) for i, j in zip(*np.nonzero(a))]


def _block_with_isolated():
    a = np.zeros((6, 7))
    a[0:2, 1:3] = [[1.0, 2.0], [3.0, 0.5]]
    a[3:5, 4:7] = 1.5
    return a  # rows 2 and 5, columns 0 and 3 are isolated


def _random_sparse(seed, shape, density, complex_part=False):
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=shape) * (rng.uniform(size=shape) < density)
    if complex_part:
        a = a + 0.25j * rng.uniform(size=shape) * (a != 0)
    return a


def _blocks(seed, shapes, phase=1.0):
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(0.5, 1.0, size=s) * (rng.uniform(size=s) < 0.3) for s in shapes]
    a = np.zeros((sum(s[0] for s in shapes) + 1, sum(s[1] for s in shapes)))
    r = c = 0
    for b in blocks:
        a[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return phase * a  # the last row is isolated


def _cases():
    """name -> (the dense entries, the coordinate file's text)."""
    e1 = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=float)
    c2 = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    blocks = _block_with_isolated()
    # Explicit zeros and entries at or below 1e-12 times the largest
    # modulus are stored but are not support.
    tiny = np.array([[2.0, 1e-13, 0.0], [0.0, 3.0, 0.0], [2e-12, 0.0, 1.0]])
    tiny_entries = _entries(tiny) + [(0, 2, 0.0), (1, 0, 0.0)]
    sym = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 3.0]])
    sym_lower = [(i, j, sym[i, j]) for i, j in zip(*np.nonzero(np.tril(sym)))]
    pattern = np.array([[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1]], dtype=float)
    cases = {
        "E1": (e1, _coordinate(_entries(e1), shape=e1.shape)),
        "C2": (c2, _coordinate(_entries(c2), "complex", shape=c2.shape)),
        "blocks_isolated": (blocks, _coordinate(_entries(blocks), shape=blocks.shape)),
        "explicit_zeros": (tiny, _coordinate(tiny_entries, shape=tiny.shape)),
        "symmetric": (sym, _coordinate(sym_lower, symmetry="symmetric", shape=sym.shape)),
        "pattern": (pattern, _coordinate([(i, j) for i, j, _ in _entries(pattern)],
                                         "pattern", shape=pattern.shape)),
    }
    # Above 48 rows and columns sigma comes from Lanczos on the CSR storage,
    # and T3 and the weighted bound from products with vectors.
    # The all-ones start vector lies in the nullspace of I - J at odd n
    # (J the reversal), so Lanczos restarts from the heaviest column.
    reversal = np.eye(61) - np.eye(61)[::-1]
    big = {
        "nullspace_start": reversal,
        "sparse_120x90": _random_sparse(1, (120, 90), 0.05),
        "complex_70x60": _random_sparse(2, (70, 60), 0.1, complex_part=True),
        "phase_blocks": _blocks(3, [(60, 55), (52, 50), (5, 4)], phase=np.exp(0.3j)),
    }
    for name, a in big.items():
        field = "real" if np.isrealobj(a) else "complex"
        cases[name] = (a, _coordinate(_entries(a), field, shape=a.shape))
    return cases


CASES = _cases()


@pytest.fixture(params=sorted(CASES))
def pair(request, tmp_path):
    """Paths of the array file and the coordinate file of one case."""
    dense, text = CASES[request.param]
    array_path = tmp_path / "array.mtx"
    write_matrix(array_path, DenseMatrix(dense))
    coordinate_path = tmp_path / "coordinate.mtx"
    coordinate_path.write_text(text)
    return array_path, coordinate_path


def _run(args, out):
    code = cli.main(args + ["--json", "--out", str(out)])
    return code, (json.loads(out.read_text()) if code == 0 else None)


def _assert_parity(dense, sparse, sigma, where=""):
    if isinstance(dense, dict):
        assert dense.keys() == sparse.keys(), where
        for key in dense:
            if key != "path":
                _assert_parity(dense[key], sparse[key], sigma, f"{where}.{key}")
    elif isinstance(dense, list):
        assert len(dense) == len(sparse), where
        for k, (x, y) in enumerate(zip(dense, sparse)):
            _assert_parity(x, y, sigma, f"{where}[{k}]")
    elif isinstance(dense, float):
        assert isinstance(sparse, float), where
        assert abs(dense - sparse) <= RTOL * max(abs(dense), sigma), (where, dense, sparse)
    else:
        assert dense == sparse and type(dense) is type(sparse), (where, dense, sparse)


def test_read_matrix_follows_the_layout(pair, tmp_path):
    array_path, coordinate_path = pair
    dense = read_matrix(array_path)
    sparse = read_matrix(coordinate_path)
    assert isinstance(dense, DenseMatrix) and isinstance(sparse, SparseMatrix)
    assert sparse.shape == dense.shape and sparse.is_real() == dense.is_real()
    assert sparse.to_dense() == dense
    # Writing lists every entry, so both give the array file's bytes.
    write_matrix(tmp_path / "again.mtx", sparse)
    assert (tmp_path / "again.mtx").read_bytes() == array_path.read_bytes()


def test_dense_only_functions_densify_at_entry():
    x = CASES["symmetric"][0]
    dense = DenseMatrix(x)
    sparse = SparseMatrix(scipy.sparse.coo_array(x))
    assert np.array_equal(singular_values(sparse), singular_values(dense))
    assert characterize_pseudo_regular(sparse) == characterize_pseudo_regular(dense)
    assert connectivity_via_powers(sparse, 0, 1) == connectivity_via_powers(dense, 0, 1)
    assert singular_multiset_check(sparse) == singular_multiset_check(dense)
    for (lam, vec), (mu, wec) in zip(hermitian_eigen(sparse), hermitian_eigen(dense)):
        assert lam == mu and np.array_equal(vec, wec)


@pytest.mark.parametrize("name", sorted(name for name, (x, _) in CASES.items()
                                         if np.isrealobj(x)))
def test_ratio_estimate_matches(name):
    # The estimator is a library call only, so it is compared here rather
    # than through the command line.
    sparse = SparseMatrix(scipy.sparse.coo_array(CASES[name][0]))
    dense = sparse.to_dense()
    for s, r_max in ((1, 60), (2, 10)):
        got, want = sigma_ratio_estimate(sparse, s, r_max), sigma_ratio_estimate(dense, s, r_max)
        assert got.degenerate == want.degenerate
        assert (got.limit is None) == (want.limit is None)
        if want.limit is not None:
            assert abs(got.limit - want.limit) <= RTOL * want.limit


def test_analyze_matches(pair, tmp_path):
    array_path, coordinate_path = pair
    code, dense = _run(["analyze", str(array_path)], tmp_path / "dense.json")
    assert code == 0
    code, sparse = _run(["analyze", str(coordinate_path)], tmp_path / "sparse.json")
    assert code == 0
    _assert_parity(dense, sparse, dense["sigma"]["value"])


@pytest.mark.parametrize("command", [["classify"], ["components"],
                                     ["certify", "--theorem", "T3"]])
def test_commands_match(pair, tmp_path, command, capsys):
    array_path, coordinate_path = pair
    sigma = float(np.linalg.norm(read_matrix(array_path).data, 2))
    dense_code, dense = _run(command + [str(array_path)], tmp_path / "dense.json")
    dense_err = capsys.readouterr().err
    sparse_code, sparse = _run(command + [str(coordinate_path)], tmp_path / "sparse.json")
    assert sparse_code == dense_code
    assert capsys.readouterr().err == dense_err
    _assert_parity(dense, sparse, sigma)



@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("complex_part", [False, True])
def test_sparse_sums_add_in_storage_order(seed, complex_part):
    # The sums of a SparseMatrix are products with ones; they must add
    # the stored entries of a row, or of a column, in storage order, as
    # np.bincount does, so the bits match for every seed and dtype.
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 90, size=2)
    a = SparseMatrix(scipy.sparse.coo_array(
        _random_sparse(seed, (m, n), 0.3, complex_part) * 10.0 ** rng.integers(-8, 8, (m, n))))
    rows = np.repeat(np.arange(m), np.diff(a.indptr))
    for got, bins, size in ((row_sums(a), rows, m), (col_sums(a), a.indices, n)):
        want = np.bincount(bins, a.values.real, size)
        if complex_part:
            want = want + 1j * np.bincount(bins, a.values.imag, size)
        assert got.dtype == a.values.dtype
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
