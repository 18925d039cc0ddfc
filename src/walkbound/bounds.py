"""Lower bounds on the largest singular value, plus one upper bound.

Every bound comes back as a BoundReport carrying the value, the reference
sigma, the signed gap, and a tightness flag at the requested tolerance:
tight when ``core.relative_gap(|gap|, sigma)`` is at most ``tol``.
Lower bounds use gap = sigma - value; the upper bound uses value - sigma,
each judged on the context's A / 2^e and reported in the input's units.

Each bound takes a DenseMatrix, a SparseMatrix or an ``Analysis`` of one
and hands ``tol`` to ``Analysis.of``, which refuses it with a
context.  Every bound reads the context's basis: its sigma, walk table,
entries, sums (``Analysis.sums``) and total (``Analysis.total``).  So a
scalar input's bounds are its nonnegative part's, within the phase
test's tolerance of the input's.  The degree-product report is a reading,
``_hwh``; it and Schur's bound run only on a nonnegative input, its own
basis.  The bounds read A only through products with vectors, those sums
and ``pair_products`` selected by the support, one flag per stored
entry, so a SparseMatrix costs its stored entries and no bound looks at
the storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import Analysis, reading
from .core import Matrix, check_order, relative_gap
from .errors import NotScalarError, PreconditionError


@dataclass(frozen=True)
class BoundReport:
    method: str
    value: float
    sigma: float
    gap: float
    tight: bool
    params: dict = field(default_factory=dict)
    # Only the degree-product bound fills this: True when the equality
    # condition d_i * d_j = sigma^2 holds on every support pair.
    certificate: bool | None = None


def _report(ctx: Analysis, method: str, value: float, params: dict,
            certificate: bool | None = None, upper: bool = False) -> BoundReport:
    """A lower (or ``upper``) bound on the sigma of ``ctx.basis``, in the input's units."""
    sigma = ctx.top.sigma
    gap = value - sigma if upper else sigma - value
    tight = relative_gap(abs(gap), sigma) <= ctx.tol
    return BoundReport(method, ctx.unscaled(value), ctx.unscaled(sigma),
                       ctx.unscaled(gap), tight, params, certificate)


def walk_bound(a: Matrix | Analysis, p: int = 3, r: int = 1,
               tol: float | None = None) -> BoundReport:
    """Walk-total ratio lower bound (w^p(R)/w^r(R))^(1/(p-r)).

    Valid for scalar matrices and odd orders p > r >= 1 only; even orders
    are rejected because the ratio can then exceed the true value.  The
    weights are taken on the nonnegative part, whose largest singular
    value equals that of the input.
    """
    p, r = check_order(p, "p"), check_order(r, "r")
    ctx = Analysis.of(a, tol)
    if p % 2 == 0 or r % 2 == 0:
        raise PreconditionError(
            f"walk bound needs odd orders, got p={p}, r={r}; "
            "even orders can overshoot the largest singular value"
        )
    if p <= r:
        raise PreconditionError(f"orders must satisfy p > r, got p={p}, r={r}")
    if not ctx.scalarity.is_scalar:
        raise NotScalarError("walk bound is defined for scalar matrices")
    table = ctx.table(ctx.basis, p)
    wr = table.row_total(r).real
    value = float((table.row_total(p).real / wr) ** (1.0 / (p - r))) if wr > 0.0 else 0.0
    return _report(ctx, "walk", value, {"p": p, "r": r})


def weighted_bound(a: Matrix | Analysis, r: int = 1,
                   tol: float | None = None) -> BoundReport:
    """Weight-geometric lower bound valid for arbitrary complex matrices.

    With w the order-r walk weights of the entrywise modulus matrix,

        value = |sum_ij a_ij sqrt(w(i) w(j))| / sqrt(w(R) w(C)).

    Zero denominator (possible only for the zero matrix) reports 0.
    """
    r = check_order(r, "r")
    ctx = Analysis.of(a, tol)
    table = ctx.table(ctx.modulus, r)
    wr = np.sqrt(table.row(r).real)
    wc = np.sqrt(table.col(r).real)
    den = float(np.sqrt(table.row_total(r).real * table.col_total(r).real))
    if den > 0.0:
        value = float(abs((ctx.basis.data.T @ wr) @ wc)) / den
    else:
        value = 0.0
    return _report(ctx, "weighted", value, {"r": r})


def mean_bound(a: Matrix | Analysis, tol: float | None = None) -> BoundReport:
    """|sum of entries| / sqrt(n m), the order-1 weighted bound."""
    ctx = Analysis.of(a, tol)
    value = abs(ctx.total) / float(np.sqrt(ctx.a.m * ctx.a.n))
    return _report(ctx, "mean", value, {})


def hwh_bound(a: Matrix | Analysis, tol: float | None = None) -> BoundReport:
    """Degree-product lower bound for symmetric nonnegative matrices.

    value = (1/S) * sum_ij a_ij sqrt(d_i d_j) with d the row sums and S
    the total sum.  The report's certificate records whether the equality
    condition d_i * d_j = sigma^2 holds on every support pair, which is
    exactly when the bound is attained.
    """
    return _hwh(Analysis.of(a, tol))


@reading
def _hwh(ctx: Analysis) -> BoundReport:
    a = ctx.a
    data = a.data
    if data.shape[0] != data.shape[1]:
        raise PreconditionError("degree-product bound needs a square matrix")
    if not a.is_real():
        raise PreconditionError("degree-product bound needs real entries")
    if float(abs(data - data.T).max()) > 1e-12 * ctx.max_modulus:
        raise PreconditionError("degree-product bound needs a symmetric matrix")
    if not a.is_nonneg():
        raise PreconditionError("degree-product bound needs nonnegative entries")
    d, _ = ctx.sums  # a nonnegative input is its own basis
    if d.min() <= 0.0:
        raise PreconditionError("degree-product bound needs positive row sums")
    root = np.sqrt(d)
    value = float((data.T @ root) @ root) / ctx.total.real
    sigma = ctx.top.sigma
    target = sigma * sigma
    products = a.pair_products(d, d)[ctx.support]
    certificate = relative_gap(float(np.abs(products - target).max()), target) <= ctx.tol
    return _report(ctx, "hwh", value, {}, certificate)


def schur_upper_bound(a: Matrix | Analysis, tol: float | None = None) -> BoundReport:
    """Upper bound sqrt(max_i r_i * max_j c_j) for nonnegative matrices."""
    ctx = Analysis.of(a, tol)
    a = ctx.a
    if not a.is_real():
        raise PreconditionError("the upper bound needs real entries")
    if not a.is_nonneg():
        raise PreconditionError("the upper bound needs nonnegative entries")
    r, c = ctx.sums  # a nonnegative input is its own basis
    value = float(np.sqrt(r.max() * c.max()))
    return _report(ctx, "schur", value, {}, upper=True)
