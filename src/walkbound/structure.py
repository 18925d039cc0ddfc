"""Support structure: components and connectivity.

The support of an m x n matrix is read as a bipartite graph on m row
vertices and n column vertices, with an edge (i, j) whenever |a_ij| is
above the zero threshold.  Components never mix indices from different
blocks of a block-diagonal arrangement, and isolated vertices (zero rows
or columns) belong to no component.  ``_search`` reads the support,
one flag per stored entry, and is the one place outside ``core`` that
selects by storage.  Both of its searches label each row and column with
the smallest row of its component (-1 when isolated), and ``_search``
builds the plan from the labels once: rows and columns grouped by
component, components by smallest row.  A dense mask is searched
breadth-first, one search per component; a SparseMatrix is labelled by
hooking and shortcutting over its support pairs, in rounds of a few
whole-array operations over the pairs, and few rounds (2 on an
8000 x 8000 identity, 3 on 10^4 disjoint 10 x 10 blocks, 21 on a
shuffled path of 10^5 rows and columns), so the cost grows with the
stored entries and not with the number of components.  ``_cut`` cuts a
matrix into the submatrices of those components
(``core.diagonal_blocks``).  ``decompose`` runs both.  This module owns
a context's components, as ``analysis.reading``s: ``_plan``, the one
search of the input's support, and ``_input_cut`` and ``_basis_cut``,
the input and the basis cut along it (one cut when the basis is the
input).  ``decompose`` gives the input's submatrices, and
``component_sigmas`` the sigma of each component of the basis: a single
component that holds every nonzero entry of the basis has its sigma, and
any other is solved.  So a scalar input's are its nonnegative part's,
within the phase test's tolerance of the input's.
``connectivity_via_powers`` and ``singular_multiset_check`` need every
entry and densify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Analysis, reading
from .core import (
    DEFAULT_TOL,
    DenseMatrix,
    Matrix,
    SparseMatrix,
    check_tol,
    detect_scalar,
    diagonal_blocks,
    relative_gap,
    support_mask,
)
from .errors import NotScalarError, PreconditionError
from .spectral import singular_values


@dataclass(frozen=True)
class Component:
    row_indices: tuple
    col_indices: tuple
    submatrix: Matrix


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple
    row_perm: tuple
    col_perm: tuple
    isolated_rows: tuple
    isolated_cols: tuple


def _mask_search(support: np.ndarray) -> np.ndarray:
    """Component labels of the rows and columns of a dense m x n support
    mask, as ``_pair_labels`` gives them, by breadth-first search: the
    columns touched by the frontier rows, then the rows touched by those
    new columns, one level at a time, one search per component."""
    m, n = support.shape
    labels = np.full(m + n, -1)
    row_labels, col_labels = labels[:m], labels[m:]
    for start in np.flatnonzero(support.any(axis=1)).tolist():
        if row_labels[start] >= 0:
            continue
        rows = np.zeros(m, dtype=bool)
        cols = np.zeros(n, dtype=bool)
        rows[start] = True
        frontier = np.array([start])
        while len(frontier):
            new_cols = support[frontier].any(axis=0) & ~cols
            cols |= new_cols
            frontier = np.flatnonzero(support[:, new_cols].any(axis=1) & ~rows)
            rows[frontier] = True
        row_labels[rows] = start
        col_labels[cols] = start
    return labels


def _pair_labels(a: SparseMatrix, support: np.ndarray) -> np.ndarray:
    """Component labels of the rows and columns of a SparseMatrix, from its
    support pairs, by hooking and shortcutting (Shiloach and Vishkin, 1982,
    in the array form of FastSV, Zhang, Azad and Hu, 2020).

    Rows are vertices 0..m-1 and columns m..m+n-1.  Every vertex holds a
    parent f <= itself in its component; each round, a vertex and its
    parent take the smallest grandparent f[f] among its neighbours, and
    every vertex its own grandparent.  Each round is a few whole-array
    passes over the pairs, and the labels settle in O(log) rounds on the
    smallest vertex, a row, of each component.  An isolated vertex is
    labelled -1.
    """
    m, n = a.shape
    pair_rows = a.row_of_entries()[support]
    pair_cols = a.indices[support] + m
    by_col = np.argsort(pair_cols)
    # Each vertex's neighbours, grouped by vertex in increasing order.
    heads = np.concatenate([pair_rows, pair_cols[by_col]])
    nbrs = np.concatenate([pair_cols, pair_rows[by_col]])
    starts = np.flatnonzero(np.diff(heads, prepend=-1))
    live = heads[starts]
    f = np.arange(m + n)
    while True:
        grand = f[f]
        low = np.minimum.reduceat(grand[nbrs], starts) if nbrs.size else grand[live]
        new = np.minimum(f, grand)
        new[live] = np.minimum(new[live], low)
        parents = f[live]
        hook = low < new[parents]
        # Repeated parents keep one of their values: each is a smaller
        # vertex of the same component, and the fixed point is unique.
        new[parents[hook]] = low[hook]
        if np.array_equal(new, f):
            break
        f = new
    labels = np.full(m + n, -1)
    labels[live] = f[live]
    return labels


def _left_out(idx: np.ndarray, size: int) -> list:
    """The indices 0..size-1 not in ``idx``, in increasing order."""
    if idx.size == size:
        return []
    mask = np.ones(size, dtype=bool)
    mask[idx] = False
    return np.flatnonzero(mask).tolist()


def _search(a: Matrix, support: np.ndarray) -> tuple[np.ndarray, ...]:
    """The components of ``a``'s support: rows, then columns, sorted by
    (label, index), each with the boundaries of each component."""
    # A dense input keeps the mask search: on a full 400 x 400 matrix it took
    # 0.2 ms, labelling its pairs 15 ms (numpy 2.4, one Xeon core).
    if isinstance(a, DenseMatrix):
        labels = _mask_search(support)
    else:
        labels = _pair_labels(a, support)
    roots = np.flatnonzero(labels[:a.m] == np.arange(a.m))
    out = ()
    for side in (labels[:a.m], labels[a.m:]):
        live = np.flatnonzero(side >= 0)
        order = live[np.argsort(side[live], kind="stable")]
        ptr = np.zeros(roots.size + 1, dtype=np.intp)
        np.cumsum(np.bincount(side[live])[roots], out=ptr[1:])
        out += (order, ptr)
    return out


def _cut(matrix: Matrix, rows: np.ndarray, row_ptr: np.ndarray,
         cols: np.ndarray, col_ptr: np.ndarray) -> tuple:
    """``matrix`` cut on the components that ``_search`` returned: one
    submatrix per component, ``matrix`` itself when one covers it."""
    if row_ptr.size == 2 and rows.size == matrix.m and cols.size == matrix.n:
        return (matrix,)
    return tuple(diagonal_blocks(matrix, rows, row_ptr, cols, col_ptr))


@reading
def _plan(ctx: Analysis) -> tuple[np.ndarray, ...]:
    """The components of the input's support, as ``_search`` returns them."""
    return _search(ctx.a, ctx.support)


@reading
def _input_cut(ctx: Analysis) -> tuple:
    return _cut(ctx.a, *_plan(ctx))


@reading
def _basis_cut(ctx: Analysis) -> tuple:
    return _input_cut(ctx) if ctx.basis is ctx.a else _cut(ctx.basis, *_plan(ctx))


def component_sigmas(ctx: Analysis) -> list[float]:
    """The sigma of each component of the basis: a single component that
    holds every nonzero entry of the basis, as one that covers it does,
    has its sigma, since the rest is zero; any other is solved once."""
    basis, subs = ctx.basis, _basis_cut(ctx)
    if len(subs) == 1 and (subs[0] is basis or np.count_nonzero(subs[0].values)
                           == np.count_nonzero(basis.values)):
        return [ctx.singular(basis).sigma]
    return [ctx.singular(sub).sigma for sub in subs]


def decompose(a: Matrix | Analysis) -> ComponentDecomposition:
    """Connected components of the support graph.

    A dense matrix is searched level by level on its support mask; a
    SparseMatrix is labelled in one pass of hooking and shortcutting over
    its support pairs, in O(log) rounds of work linear in their number.
    Components are ordered by their smallest row index and carry the
    extracted submatrix, which is ``a`` itself when the component covers
    the whole matrix; the submatrices of a SparseMatrix are cut from one
    permutation of its arrays.  The returned permutations list original
    row and column indices in an order that makes the matrix block
    diagonal, with isolated (all-zero) rows and columns moved to the end.
    A context gives its own matrix A / 2^e, its plan and its cut of it.
    """
    if isinstance(a, Analysis):
        a, plan, subs = a.a, _plan(a), _input_cut(a)
    else:
        plan = _search(a, support_mask(a))
        subs = _cut(a, *plan)
    rows, row_ptr, cols, col_ptr = plan
    row_list = rows.tolist()
    col_list = cols.tolist()
    components = tuple(
        Component(tuple(row_list[r0:r1]), tuple(col_list[c0:c1]), sub)
        for r0, r1, c0, c1, sub in zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist(),
                                       col_ptr[:-1].tolist(), col_ptr[1:].tolist(), subs)
    )
    isolated_rows = _left_out(rows, a.m)
    isolated_cols = _left_out(cols, a.n)
    return ComponentDecomposition(
        components, tuple(row_list + isolated_rows), tuple(col_list + isolated_cols),
        tuple(isolated_rows), tuple(isolated_cols),
    )


def connectivity_via_powers(a: Matrix, i: int, j: int) -> tuple[bool, int | None]:
    """Reachability of column j from row i through support products.

    Row i and column j communicate exactly when some matrix in the family
    (A A*)^r A has a nonzero (i, j) entry.  Works on the 0/1 support
    pattern of the nonnegative part of a scalar matrix, where products
    cannot cancel or fade, and stops once the reached pairs stop growing:
    they only grow, since a walk can step back along its last edge.
    Returns (reachable, r) with the first power r that exhibits the
    entry, or (False, None).  A SparseMatrix is densified.
    """
    a = a.to_dense()
    if not (0 <= i < a.m and 0 <= j < a.n):
        raise PreconditionError(f"index pair ({i}, {j}) outside {a.m}x{a.n}")
    sc = detect_scalar(a)
    if not sc.is_scalar:
        raise NotScalarError("power connectivity is defined for scalar matrices")
    reach = support_mask(sc.nonneg_part)
    if reach[i, j]:
        return True, 0
    pattern = reach.astype(float)
    gram = pattern @ pattern.T
    for r in range(1, a.m + a.n + 1):
        grown = (gram @ reach) > 0
        if grown[i, j]:
            return True, r
        if np.array_equal(grown, reach):
            return False, None
        reach = grown
    return False, None


def singular_multiset_check(a: Matrix, tol: float = DEFAULT_TOL) -> bool:
    """Whole-matrix nonzero singular values versus the component merge.

    Compares the sorted nonzero singular values of the matrix with the
    union of the nonzero singular values of its components; isolated rows
    and columns only ever contribute zeros.  Values within tol of zero,
    relative to the largest value by ``core.relative_gap``, are discarded
    before comparing, and kept values must agree to that gap.  A
    SparseMatrix is densified.
    """
    tol = check_tol(tol)
    a = a.to_dense()
    whole = singular_values(a)
    top = float(whole[0]) if whole.size else 0.0
    merged: list[float] = []
    for comp in decompose(a).components:
        merged.extend(float(s) for s in singular_values(comp.submatrix))
    merged.sort(reverse=True)
    keep_whole = [float(s) for s in whole if relative_gap(s, top) > tol]
    keep_merged = [s for s in merged if relative_gap(s, top) > tol]
    if len(keep_whole) != len(keep_merged):
        return False
    return all(
        relative_gap(abs(x - y), top) <= tol for x, y in zip(keep_whole, keep_merged)
    )
