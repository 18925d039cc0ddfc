"""Two-sided walk weights.

A walk weight of order s is attached to every row index and every column
index.  Order 1 is identically 1 on both sides; higher orders alternate
across the matrix:

    w^s(i) = sum_k a_ik * w^(s-1)(k)   for a row index i,
    w^s(j) = sum_k a_kj * w^(s-1)(k)   for a column index j,

where the previous level is read from the opposite side.  Order 2 is the
vector of row sums on the row side and of column sums on the column side.
Weights are tabulated in the matrix's dtype: a real matrix has float64
weights, nonnegative for a nonnegative matrix, and a complex one has
complex128 weights.  Each level is one product with A and one with its
transpose, so a SparseMatrix costs its stored entries per level.
``total_gap`` is the gap of a walk-total equality lhs = rhs,
``core.relative_gap`` of |lhs - rhs| on the scale |rhs|, written once
for the T2 and T2.1 certificates and ``walk_identity_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matrix, check_order, relative_gap
from .errors import PreconditionError, WalkScaleError

# Walk weights above this modulus abort the recursion: results past that
# point are meaningless in float64.
WEIGHT_LIMIT = 1e300


@dataclass(frozen=True)
class WalkTable:
    """Walk weights of orders 1..order for one matrix.

    ``row_weights`` has shape (order, m) and ``col_weights`` (order, n);
    level s sits at index s-1.  Totals are the plain sums of the stored
    level vectors.
    """

    order: int
    row_weights: np.ndarray
    col_weights: np.ndarray
    row_totals: np.ndarray
    col_totals: np.ndarray

    def _check(self, s: int) -> int:
        s = check_order(s, "walk order")
        if s > self.order:
            raise PreconditionError(f"walk order {s} outside the tabulated range 1..{self.order}")
        return s - 1

    def row(self, s: int) -> np.ndarray:
        return self.row_weights[self._check(s)]

    def col(self, s: int) -> np.ndarray:
        return self.col_weights[self._check(s)]

    def row_total(self, s: int) -> complex:
        return complex(self.row_totals[self._check(s)])

    def col_total(self, s: int) -> complex:
        return complex(self.col_totals[self._check(s)])


def walk_table(a: Matrix, order: int) -> WalkTable:
    """Tabulate walk weights of orders 1..order by the level recursion.

    Runs in O(order * m * n) in the matrix's dtype, O(order * stored
    entries) for a SparseMatrix; no squaring shortcut is taken, so every
    intermediate level is available afterwards.  Raises WalkScaleError
    when any weight modulus passes 1e300.
    """
    order = check_order(order, "walk order")
    data = a.data
    data_t = data.T
    m, n = data.shape
    rows = np.empty((order, m), dtype=data.dtype)
    cols = np.empty((order, n), dtype=data.dtype)
    rows[0] = 1.0
    cols[0] = 1.0
    # The check below handles overflow, so the products may run hot; it
    # reads the finished table once.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, order):
            rows[s] = data @ cols[s - 1]
            cols[s] = data_t @ rows[s - 1]
        peaks = np.maximum(np.abs(rows).max(axis=1, initial=0.0),
                           np.abs(cols).max(axis=1, initial=0.0))
    # "not <=" so that a NaN peak (inf * 0 downstream) also trips.
    over = np.flatnonzero(~(peaks <= WEIGHT_LIMIT))
    if over.size:
        raise WalkScaleError(
            f"walk weights exceeded {WEIGHT_LIMIT:g} at order {over[0] + 1}: that "
            "order is beyond float64 for this matrix"
        )
    for arr in (rows, cols):
        arr.setflags(write=False)
    row_totals = rows.sum(axis=1)
    col_totals = cols.sum(axis=1)
    row_totals.setflags(write=False)
    col_totals.setflags(write=False)
    return WalkTable(order, rows, cols, row_totals, col_totals)


def total_gap(lhs: complex, rhs: complex) -> float:
    """The relative gap of a walk-total equality lhs = rhs."""
    return relative_gap(abs(lhs - rhs), abs(rhs))


def walk_identity_residual(a: Matrix, r: int, s: int) -> float:
    """Relative residual of the odd-order pairing identity.

    For a real matrix, the sum over row indices of
    ``w^(2r+1)(i) * w^(2s+1)(i)`` equals the order 2r+2s+1 row total.
    Returns their ``total_gap``, which is zero up to rounding.
    """
    r, s = check_order(r, "r", 0), check_order(s, "s", 0)
    if not a.is_real():
        raise PreconditionError("identity residual is defined for real matrices")
    table = walk_table(a, 2 * r + 2 * s + 1)
    lhs = float(np.dot(table.row(2 * r + 1).real, table.row(2 * s + 1).real))
    return total_gap(lhs, table.row_total(2 * r + 2 * s + 1).real)
