"""Lower bounds on the largest singular value, plus one upper bound.

Every bound comes back as a BoundReport carrying the value, the reference
sigma, the signed gap, and a tightness flag at the requested tolerance.
Lower bounds use gap = sigma - value; the upper bound uses value - sigma.

Each bound takes a DenseMatrix or an ``Analysis`` of one.  ``tol``
applies only to a matrix: a context brings its own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import Analysis
from .core import DEFAULT_TOL, DenseMatrix, col_sums, row_sums, total_sum
from .errors import NotScalarError, PreconditionError
from .walks import WalkTable


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


def _resolve_sigma(ctx: Analysis, sigma: float | None) -> float:
    if sigma is not None:
        if sigma < 0.0:
            raise PreconditionError("sigma must be nonnegative")
        return float(sigma)
    return ctx.singular(ctx.a).sigma


def _lower_report(method: str, value: float, sigma: float, tol: float,
                  params: dict, certificate: bool | None = None) -> BoundReport:
    gap = sigma - value
    tight = abs(gap) <= tol * max(1.0, sigma)
    return BoundReport(method, value, sigma, gap, tight, params, certificate)


def _walk_ratio_value(table: WalkTable, p: int, r: int) -> float:
    """(w^p(R) / w^r(R)) ** (1/(p-r)) with no parity validation.

    Kept separate so tests can demonstrate that even orders break the
    bound; walk_bound itself refuses them.
    """
    wr = table.row_total(r).real
    wp = table.row_total(p).real
    if wr <= 0.0:
        return 0.0
    return float((wp / wr) ** (1.0 / (p - r)))


def walk_bound(a: DenseMatrix | Analysis, p: int, r: int,
               tol: float = DEFAULT_TOL,
               sigma: float | None = None) -> BoundReport:
    """Walk-total ratio lower bound (w^p(R)/w^r(R))^(1/(p-r)).

    Valid for scalar matrices and odd orders p > r >= 1 only; even orders
    are rejected because the ratio can then exceed the true value.  The
    weights are taken on the nonnegative part, whose largest singular
    value equals that of the input.
    """
    ctx = Analysis.of(a, tol)
    if p % 2 == 0 or r % 2 == 0:
        raise PreconditionError(
            f"walk bound needs odd orders, got p={p}, r={r}; "
            "even orders can overshoot the largest singular value"
        )
    if not p > r >= 1:
        raise PreconditionError(f"orders must satisfy p > r >= 1, got p={p}, r={r}")
    if not ctx.scalarity.is_scalar:
        raise NotScalarError("walk bound is defined for scalar matrices")
    value = _walk_ratio_value(ctx.table(ctx.basis, p), p, r)
    sig = _resolve_sigma(ctx, sigma)
    return _lower_report("walk", value, sig, ctx.tol, {"p": p, "r": r})


def weighted_bound(a: DenseMatrix | Analysis, r: int = 1, tol: float = DEFAULT_TOL,
                   sigma: float | None = None) -> BoundReport:
    """Weight-geometric lower bound valid for arbitrary complex matrices.

    With w the order-r walk weights of the entrywise modulus matrix,

        value = |sum_ij a_ij sqrt(w(i) w(j))| / sqrt(w(R) w(C)).

    Zero denominator (possible only for the zero matrix) reports 0.
    """
    ctx = Analysis.of(a, tol)
    if r < 1:
        raise PreconditionError("order r must be at least 1")
    table = ctx.table(ctx.modulus, r)
    wr = np.sqrt(table.row(r).real)
    wc = np.sqrt(table.col(r).real)
    den = float(np.sqrt(table.row_total(r).real * table.col_total(r).real))
    if den > 0.0:
        value = float(abs(wr @ ctx.a.data @ wc)) / den
    else:
        value = 0.0
    return _lower_report("weighted", value, _resolve_sigma(ctx, sigma), ctx.tol, {"r": r})


def mean_bound(a: DenseMatrix | Analysis, tol: float = DEFAULT_TOL,
               sigma: float | None = None) -> BoundReport:
    """|sum of entries| / sqrt(n m), the order-1 weighted bound."""
    ctx = Analysis.of(a, tol)
    a = ctx.a
    value = abs(total_sum(a)) / float(np.sqrt(a.m * a.n))
    return _lower_report("mean", value, _resolve_sigma(ctx, sigma), ctx.tol, {})


def hwh_bound(a: DenseMatrix | Analysis, tol: float = DEFAULT_TOL,
              sigma: float | None = None) -> BoundReport:
    """Degree-product lower bound for symmetric nonnegative matrices.

    value = (1/S) * sum_ij a_ij sqrt(d_i d_j) with d the row sums and S
    the total sum.  The report's certificate records whether the equality
    condition d_i * d_j = sigma^2 holds on every support pair, which is
    exactly when the bound is attained.
    """
    ctx = Analysis.of(a, tol)
    a, tol = ctx.a, ctx.tol
    data = a.data
    if data.shape[0] != data.shape[1]:
        raise PreconditionError("degree-product bound needs a square matrix")
    if not a.is_real():
        raise PreconditionError("degree-product bound needs real entries")
    if float(np.abs(data - data.T).max()) > 1e-12 * max(ctx.max_modulus, 1e-300):
        raise PreconditionError("degree-product bound needs a symmetric matrix")
    if data.real.min() < 0.0:
        raise PreconditionError("degree-product bound needs nonnegative entries")
    d = row_sums(a).real
    if d.min() <= 0.0:
        raise PreconditionError("degree-product bound needs positive row sums")
    total = total_sum(a).real
    root = np.sqrt(d)
    value = float(root @ data.real @ root) / total
    sig = _resolve_sigma(ctx, sigma)
    target = sig * sig
    products = np.outer(d, d)[ctx.support]
    certificate = bool(
        np.all(np.abs(products - target) <= tol * max(1.0, target))
    )
    return _lower_report("hwh", value, sig, tol, {}, certificate)


def schur_upper_bound(a: DenseMatrix | Analysis, tol: float = DEFAULT_TOL,
                      sigma: float | None = None) -> BoundReport:
    """Upper bound sqrt(max_i r_i * max_j c_j) for nonnegative matrices."""
    ctx = Analysis.of(a, tol)
    a = ctx.a
    if not a.is_real():
        raise PreconditionError("the upper bound needs real entries")
    if a.data.real.min() < 0.0:
        raise PreconditionError("the upper bound needs nonnegative entries")
    r = row_sums(a).real
    c = col_sums(a).real
    value = float(np.sqrt(r.max() * c.max()))
    sig = _resolve_sigma(ctx, sigma)
    gap = value - sig
    tight = abs(gap) <= ctx.tol * max(1.0, sig)
    return BoundReport("schur", value, sig, gap, tight, {})
