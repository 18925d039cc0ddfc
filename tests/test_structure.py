from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import scipy.sparse
from hypothesis import strategies as st

from walkbound import (
    DenseMatrix,
    NotScalarError,
    PreconditionError,
    SparseMatrix,
    connectivity_via_powers,
    decompose,
    singular_multiset_check,
)
from walkbound.core import support_mask


def _block_diag_matrix(seed, shapes):
    rng = np.random.default_rng(seed)
    m = sum(s[0] for s in shapes)
    n = sum(s[1] for s in shapes)
    full = np.zeros((m, n))
    i = j = 0
    for bm, bn in shapes:
        full[i : i + bm, j : j + bn] = rng.uniform(0.1, 1.0, size=(bm, bn))
        i += bm
        j += bn
    return DenseMatrix(full)


def _connected(dec):
    """One component covering every row and column."""
    return len(dec.components) == 1 and not dec.isolated_rows and not dec.isolated_cols


def test_decompose_connected(e1):
    dec = decompose(e1)
    assert len(dec.components) == 1
    assert dec.components[0].row_indices == (0, 1, 2)
    assert dec.components[0].col_indices == (0, 1, 2, 3)
    assert _connected(dec)


def test_decompose_blocks():
    a = _block_diag_matrix(0, [(2, 3), (1, 2)])
    dec = decompose(a)
    assert len(dec.components) == 2
    assert dec.components[0].row_indices == (0, 1)
    assert dec.components[1].row_indices == (2,)
    assert dec.components[1].col_indices == (3, 4)
    assert not _connected(dec)


def test_decompose_finds_blocks_after_shuffle():
    base = _block_diag_matrix(1, [(2, 2), (2, 3)])
    rng = np.random.default_rng(5)
    rp = rng.permutation(base.m)
    cp = rng.permutation(base.n)
    shuffled = DenseMatrix(base.data[np.ix_(rp, cp)].real)
    dec = decompose(shuffled)
    assert len(dec.components) == 2
    assert sorted(len(c.row_indices) for c in dec.components) == [2, 2]
    assert sorted(len(c.col_indices) for c in dec.components) == [2, 3]


def test_permutations_block_diagonalize():
    a = _block_diag_matrix(2, [(2, 2), (3, 2), (1, 3)])
    rng = np.random.default_rng(9)
    shuffled = DenseMatrix(
        a.data[np.ix_(rng.permutation(a.m), rng.permutation(a.n))].real
    )
    dec = decompose(shuffled)
    rearranged = shuffled.data[np.ix_(dec.row_perm, dec.col_perm)].real
    # Walk the diagonal blocks; everything off the block diagonal is zero.
    i = j = 0
    off_block = rearranged.copy()
    for comp in dec.components:
        bm, bn = len(comp.row_indices), len(comp.col_indices)
        off_block[i : i + bm, j : j + bn] = 0.0
        i += bm
        j += bn
    assert np.all(off_block == 0.0)


def test_isolated_rows_and_cols():
    a = DenseMatrix([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    dec = decompose(a)
    assert dec.isolated_rows == (1,)
    assert dec.isolated_cols == (1, 2)
    assert len(dec.components) == 1
    assert not _connected(dec)


def test_zero_support_has_no_components():
    explicit_zeros = SparseMatrix(scipy.sparse.coo_array(
        (np.zeros(3), ([0, 1, 3], [0, 2, 1])), shape=(4, 3)))
    for a in (DenseMatrix(np.zeros((3, 4))), explicit_zeros):
        dec = decompose(a)
        assert dec.components == ()
        assert dec.isolated_rows == dec.row_perm == tuple(range(a.m))
        assert dec.isolated_cols == dec.col_perm == tuple(range(a.n))


def test_component_submatrix_content():
    a = _block_diag_matrix(3, [(2, 2), (1, 1)])
    dec = decompose(a)
    comp = dec.components[0]
    expect = a.data[np.ix_(comp.row_indices, comp.col_indices)]
    assert np.array_equal(comp.submatrix.data, expect)


def test_connectivity_via_powers_connected(e1):
    for i in range(3):
        for j in range(4):
            reachable, r = connectivity_via_powers(e1, i, j)
            assert reachable
            assert r is not None and 0 <= r <= 7


def test_connectivity_via_powers_split():
    a = _block_diag_matrix(4, [(2, 2), (2, 2)])
    reachable, r = connectivity_via_powers(a, 0, 3)
    assert not reachable and r is None
    reachable, r = connectivity_via_powers(a, 2, 3)
    assert reachable


def test_connectivity_via_powers_follows_weak_links():
    # Products of small entries along a path fade below any cutoff on the
    # powers; the support pattern does not.
    a = DenseMatrix([[1.0, 0.0], [1e-7, 1e-7]])
    assert len(decompose(a).components) == 1
    assert connectivity_via_powers(a, 0, 1) == (True, 1)


def test_connectivity_via_powers_scalar_phase(e1):
    rotated = DenseMatrix(e1.data * np.exp(0.5j))
    assert connectivity_via_powers(rotated, 0, 3)[0]


def test_connectivity_via_powers_rejects_non_scalar(c2):
    with pytest.raises(NotScalarError):
        connectivity_via_powers(c2, 0, 0)


def test_connectivity_via_powers_bounds(e1):
    with pytest.raises(PreconditionError):
        connectivity_via_powers(e1, 5, 0)


@settings(deadline=None, derandomize=True, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 5_000))
def test_powers_agree_with_search(rand_nonneg, seed):
    a = rand_nonneg(seed, max_dim=5)
    dec = decompose(a)
    row_comp = {}
    col_comp = {}
    for k, comp in enumerate(dec.components):
        for i in comp.row_indices:
            row_comp[i] = k
        for j in comp.col_indices:
            col_comp[j] = k
    for i in range(a.m):
        for j in range(a.n):
            expected = i in row_comp and j in col_comp and row_comp[i] == col_comp[j]
            assert connectivity_via_powers(a, i, j)[0] == expected


def test_singular_multiset_merges():
    for seed in range(6):
        a = _block_diag_matrix(seed, [(2, 2), (3, 2), (2, 3)])
        assert singular_multiset_check(a)


def test_singular_multiset_survives_shuffle():
    a = _block_diag_matrix(11, [(2, 2), (2, 2)])
    rng = np.random.default_rng(13)
    shuffled = DenseMatrix(
        a.data[np.ix_(rng.permutation(a.m), rng.permutation(a.n))].real
    )
    assert singular_multiset_check(shuffled)


def _decompose_by_vertex(a):
    """Reference search, one vertex at a time: (rows, cols) per component."""
    mask = support_mask(a)
    row_seen = np.zeros(a.m, dtype=bool)
    col_seen = np.zeros(a.n, dtype=bool)
    found = []
    for start in range(a.m):
        if row_seen[start] or not mask[start].any():
            continue
        rows, cols = [], []
        queue = deque([("r", start)])
        row_seen[start] = True
        while queue:
            side, idx = queue.popleft()
            if side == "r":
                rows.append(idx)
                for j in np.flatnonzero(mask[idx] & ~col_seen):
                    col_seen[j] = True
                    queue.append(("c", int(j)))
            else:
                cols.append(idx)
                for i in np.flatnonzero(mask[:, idx] & ~row_seen):
                    row_seen[i] = True
                    queue.append(("r", int(i)))
        found.append((tuple(sorted(rows)), tuple(sorted(cols))))
    return found


@pytest.mark.parametrize("seed", range(20))
def test_level_search_matches_vertex_search(seed):
    rng = np.random.default_rng(seed)
    shapes = [tuple(rng.integers(1, 6, size=2)) for _ in range(rng.integers(1, 6))]
    base = _block_diag_matrix(seed, shapes).data.real
    # Sparsify, add zero rows and columns, and shuffle.
    base = base * (rng.uniform(size=base.shape) < 0.6)
    base = np.pad(base, ((0, 2), (0, 1)))
    a = DenseMatrix(base[rng.permutation(base.shape[0])][:, rng.permutation(base.shape[1])])
    dec = decompose(a)
    assert [(c.row_indices, c.col_indices) for c in dec.components] == _decompose_by_vertex(a)
    assert all(type(i) is int for i in dec.row_perm + dec.col_perm)
    assert dec.isolated_rows == tuple(int(i) for i in np.flatnonzero(~support_mask(a).any(axis=1)))


def _stored_cut(a, rows, cols):
    """CSR arrays of the stored entries of ``a`` in rows ``rows`` and
    columns ``cols``, row by row in those orders: a reference cut."""
    place = {j: k for k, j in enumerate(cols)}
    values, indices, indptr = [], [], [0]
    for i in rows:
        for p in range(a.indptr[i], a.indptr[i + 1]):
            if int(a.indices[p]) in place:
                values.append(a.values[p])
                indices.append(place[int(a.indices[p])])
        indptr.append(len(values))
    return np.array(values, dtype=a.values.dtype), np.array(indices), np.array(indptr)


def _shuffled_sparse_blocks(seed):
    """Shuffled random blocks with isolated rows and columns, and stored
    entries below the zero cutoff: one bridges the first two blocks, the
    others sit in an isolated row and an isolated column."""
    rng = np.random.default_rng(seed)
    shapes = [tuple(rng.integers(1, 7, size=2)) for _ in range(rng.integers(2, 8))]
    base = _block_diag_matrix(seed, shapes).data.real
    base = base * (rng.uniform(size=base.shape) < 0.5)
    base = np.pad(base, ((0, 2), (0, 3)))
    m, n = base.shape
    tiny = 1e-14 * base.max()
    base[0, shapes[0][1]] = tiny  # row of block 0, column of block 1
    base[m - 1, 0] = tiny  # an isolated row
    base[0, n - 1] = tiny  # an isolated column
    rp, cp = rng.permutation(m), rng.permutation(n)
    return SparseMatrix(scipy.sparse.coo_array(base[np.ix_(rp, cp)]))


@pytest.mark.parametrize("seed", range(30))
def test_pair_labelling_matches_vertex_search(seed):
    a = _shuffled_sparse_blocks(seed)
    dec = decompose(a)
    expected = _decompose_by_vertex(a.to_dense())
    assert [(c.row_indices, c.col_indices) for c in dec.components] == expected
    dense = decompose(a.to_dense())
    assert [(c.row_indices, c.col_indices) for c in dense.components] == expected
    assert (dec.row_perm, dec.col_perm) == (dense.row_perm, dense.col_perm)
    live = support_mask(a.to_dense())
    assert dec.isolated_rows == tuple(np.flatnonzero(~live.any(axis=1)).tolist())
    assert dec.isolated_cols == tuple(np.flatnonzero(~live.any(axis=0)).tolist())
    assert dec.row_perm == sum((c.row_indices for c in dec.components), ()) + dec.isolated_rows
    assert dec.col_perm == sum((c.col_indices for c in dec.components), ()) + dec.isolated_cols
    assert sorted(dec.row_perm) == list(range(a.m))
    assert sorted(dec.col_perm) == list(range(a.n))
    for comp in dec.components:
        sub = comp.submatrix
        values, indices, indptr = _stored_cut(a, comp.row_indices, comp.col_indices)
        assert sub.shape == (len(comp.row_indices), len(comp.col_indices))
        assert sub.values.dtype == values.dtype and np.array_equal(sub.values, values)
        assert sub.indices.dtype == np.intp and np.array_equal(sub.indices, indices)
        assert sub.indptr.dtype == np.intp and np.array_equal(sub.indptr, indptr)


def test_below_cutoff_entries_bridge_nothing():
    a = SparseMatrix(scipy.sparse.coo_array(
        np.array([[2.0, 1e-13, 0.0], [0.0, 3.0, 0.0], [2e-12, 0.0, 1.0]])))
    dec = decompose(a)
    assert [(c.row_indices, c.col_indices) for c in dec.components] == [
        ((0,), (0,)), ((1,), (1,)), ((2,), (2,))]
    assert [c.submatrix.values.tolist() for c in dec.components] == [[2.0], [3.0], [1.0]]


def test_ten_thousand_blocks():
    rng = np.random.default_rng(0)
    count, size = 10_000, 10
    block = np.repeat(np.arange(count), size * size)
    rows = block * size + np.tile(np.repeat(np.arange(size), size), count)
    cols = block * size + np.tile(np.arange(size), size * count)
    rp, cp = rng.permutation(count * size), rng.permutation(count * size)
    a = SparseMatrix(scipy.sparse.coo_array(
        (rng.uniform(0.1, 1.0, rows.size), (rp[rows], cp[cols])), shape=(count * size,) * 2))
    dec = decompose(a)
    assert len(dec.components) == count
    assert not dec.isolated_rows and not dec.isolated_cols
    assert {c.submatrix.shape for c in dec.components} == {(size, size)}
    assert np.array_equal(np.sort(dec.row_perm), np.arange(a.m))
    assert np.array_equal(np.sort(dec.col_perm), np.arange(a.n))


def test_shuffled_long_path():
    # A path of 10^5 rows and columns, alternating row and column: a search
    # level by level would take 2 * 10^5 levels.
    rng = np.random.default_rng(1)
    n = 100_000
    rows = np.r_[np.arange(n), np.arange(n - 1)]
    cols = np.r_[np.arange(n), np.arange(1, n)]
    rp, cp = rng.permutation(n), rng.permutation(n)
    a = SparseMatrix(scipy.sparse.coo_array((np.ones(rows.size), (rp[rows], cp[cols])),
                                            shape=(n, n)))
    dec = decompose(a)
    assert len(dec.components) == 1
    assert dec.components[0].submatrix is a
    assert np.array_equal(np.sort(dec.row_perm), np.arange(n))
    assert np.array_equal(np.sort(dec.col_perm), np.arange(n))
