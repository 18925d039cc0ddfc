"""Support structure: components and connectivity.

The support of an m x n matrix is read as a bipartite graph on m row
vertices and n column vertices, with an edge (i, j) whenever |a_ij| is
above the zero threshold.  Components never mix indices from different
blocks of a block-diagonal arrangement, and isolated vertices (zero rows
or columns) belong to no component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Analysis
from .core import DEFAULT_TOL, DenseMatrix, detect_scalar
from .errors import NotScalarError, PreconditionError
from .spectral import singular_values


@dataclass(frozen=True)
class Component:
    row_indices: tuple
    col_indices: tuple
    submatrix: DenseMatrix


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple
    row_perm: tuple
    col_perm: tuple
    isolated_rows: tuple
    isolated_cols: tuple


def decompose(a: DenseMatrix | Analysis) -> ComponentDecomposition:
    """Connected components of the support graph, by breadth-first search.

    The search advances one level at a time over the support mask: the
    columns touched by the frontier rows, then the rows touched by those
    new columns.  Components are ordered by their smallest row index and
    carry the extracted submatrix, which is ``a`` itself when the
    component covers the whole matrix.  The returned permutations list
    original row and column indices in an order that makes the matrix
    block diagonal, with isolated (all-zero) rows and columns moved to
    the end.  An ``Analysis`` gives its matrix and its support mask.
    """
    ctx = Analysis.of(a)
    a, mask = ctx.a, ctx.support
    live_rows = mask.any(axis=1)
    live_cols = mask.any(axis=0)
    row_seen = ~live_rows
    components = []
    for start in np.flatnonzero(live_rows).tolist():
        if row_seen[start]:
            continue
        rows = np.zeros(a.m, dtype=bool)
        cols = np.zeros(a.n, dtype=bool)
        rows[start] = True
        frontier = [start]
        while len(frontier):
            new_cols = mask[frontier].any(axis=0) & ~cols
            cols |= new_cols
            frontier = np.flatnonzero(mask[:, new_cols].any(axis=1) & ~rows)
            rows[frontier] = True
        row_seen |= rows
        row_idx = np.flatnonzero(rows)
        col_idx = np.flatnonzero(cols)
        if len(row_idx) == a.m and len(col_idx) == a.n:
            sub = a
        else:
            sub = DenseMatrix(a.data[np.ix_(row_idx, col_idx)])
        components.append(Component(tuple(row_idx.tolist()), tuple(col_idx.tolist()), sub))
    isolated_rows = tuple(np.flatnonzero(~live_rows).tolist())
    isolated_cols = tuple(np.flatnonzero(~live_cols).tolist())
    row_perm = tuple(
        [i for comp in components for i in comp.row_indices] + list(isolated_rows)
    )
    col_perm = tuple(
        [j for comp in components for j in comp.col_indices] + list(isolated_cols)
    )
    return ComponentDecomposition(
        tuple(components), row_perm, col_perm, isolated_rows, isolated_cols
    )


def connectivity_via_powers(a: DenseMatrix, i: int, j: int,
                            r_cap: int | None = None) -> tuple[bool, int | None]:
    """Reachability of column j from row i through support products.

    Row i and column j communicate exactly when some matrix in the family
    (A A*)^r A has a nonzero (i, j) entry.  Works on the nonnegative part
    of a scalar matrix, where products cannot cancel, and stops early once
    the accumulated support stops growing.  Returns (reachable, r) with
    the first power r that exhibits the entry, or (False, None).
    """
    if not (0 <= i < a.m and 0 <= j < a.n):
        raise PreconditionError(f"index pair ({i}, {j}) outside {a.m}x{a.n}")
    sc = detect_scalar(a)
    if not sc.is_scalar:
        raise NotScalarError("power connectivity is defined for scalar matrices")
    nonneg = sc.nonneg_part.data.real
    if r_cap is None:
        r_cap = a.m + a.n
    current = nonneg.copy()
    peak = current.max()
    reach = current > 1e-12 * max(peak, 1e-300)
    if reach[i, j]:
        return True, 0
    accumulated = reach.copy()
    gram = nonneg @ nonneg.T
    for r in range(1, r_cap + 1):
        current = gram @ current
        peak = current.max()
        if peak > 1e280:
            current = current / peak
            peak = 1.0
        reach = current > 1e-12 * max(peak, 1e-300)
        if reach[i, j]:
            return True, r
        new = reach & ~accumulated
        if not new.any():
            return False, None
        accumulated |= reach
    return False, None


def singular_multiset_check(a: DenseMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Whole-matrix nonzero singular values versus the component merge.

    Compares the sorted nonzero singular values of the matrix with the
    union of the nonzero singular values of its components; isolated rows
    and columns only ever contribute zeros.  Values within tol (scaled by
    the largest value) of zero are discarded before comparing.
    """
    whole = singular_values(a)
    top = float(whole[0]) if whole.size else 0.0
    scale = max(1.0, top)
    merged: list[float] = []
    for comp in decompose(a).components:
        merged.extend(float(s) for s in singular_values(comp.submatrix))
    merged.sort(reverse=True)
    keep_whole = [float(s) for s in whole if s > tol * scale]
    keep_merged = [s for s in merged if s > tol * scale]
    if len(keep_whole) != len(keep_merged):
        return False
    return all(
        abs(x - y) <= tol * scale for x, y in zip(keep_whole, keep_merged)
    )
