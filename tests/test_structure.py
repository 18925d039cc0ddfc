from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walkbound import (
    DenseMatrix,
    NotScalarError,
    PreconditionError,
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
