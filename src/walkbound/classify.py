"""Regularity classification and the equality certificates behind it.

A scalar matrix is classified on its nonnegative part:

  regular         all row sums equal and all column sums equal;
  almost regular  every support component is regular and attains the
                  matrix's largest singular value;
  pseudo regular  the order-5 row weights are a fixed multiple of the
                  order-3 row weights, index by index.

The classes nest: regular implies almost regular implies pseudo regular.
The certificates tie specific walk-total equalities to these classes; a
certificate evaluated on a non-scalar matrix still reports its gaps, but
claims nothing about classification, which is undefined there.  Each
class is an ``analysis.reading`` of its own, kept by the context, and
each certificate computes only the class it checks: T4 ``_regular``, T2
``_pseudo_lambda``, T2.1 and T3 almost regularity, from ``_per_component``.
Both regularity readings test the context's one pair of sums,
``Analysis.sums``, the basis's row and column sums: ``_regular`` whole,
``_per_component`` gathered on the rows and columns of each component of
``structure._components``.  T4 reads only the basis's total, ``Analysis.total``,
so on an input that is not scalar it sums no row or column.

Each certificate states only its own equality; the rules they share are
written once.  ``_refuse_zero`` refuses the zero matrix, first in all
five; ``_certificate_basis`` gives the basis with its sigma;
``walks.total_gap`` is the gap of a walk-total equality (T2 and both
sides of T2.1); ``_verdict`` decides T2, T2.1 and T4 from the gap and,
on scalar input only, checks the implied class when the check needs it.
T3 keeps its three-way agreement; HWH compares the degree-product
report's gap, which it reports, with the tolerance.  Every gap here is a
``core.relative_gap``.

Each function takes a DenseMatrix, a SparseMatrix or an ``Analysis`` of
one and hands ``tol`` to ``Analysis.of``, which refuses it with a
context.  T3 and the degree-product certificate read the walk or
degree products ``pair_products`` at every stored entry and select the
support pairs with the basis's support, ``Analysis.support``, so a
SparseMatrix costs its stored entries and no function here looks at the
storage; ``characterize_pseudo_regular`` densifies it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .analysis import Analysis, reading
from .bounds import hwh_bound
from .core import (
    Matrix,
    ScalarityResult,
    check_order,
    relative_gap,
)
from .errors import NotScalarError, PreconditionError
from .spectral import _svd
from .structure import _components, component_sigmas
from .walks import WalkTable, total_gap


@dataclass(frozen=True)
class ComponentSummary:
    regular: bool
    sigma: float


@dataclass(frozen=True)
class ClassificationReport:
    scalarity: ScalarityResult
    is_regular: bool
    is_pseudo_regular: bool
    pseudo_lambda: float | None
    is_almost_regular: bool
    per_component: tuple
    tol: float


@dataclass(frozen=True)
class PseudoRegularCharacterization:
    """Eigenvector reading of pseudo regularity.

    satisfied is True when the order-3 row weight vector is an
    eigenvector of A A* to a nonzero eigenvalue mu and every other
    nonzero eigenvalue has its eigenspace orthogonal to the all-ones
    vector.  offending_eigenvalues lists the nonzero eigenvalues that
    break the orthogonality requirement.  Eigenvalues are squared
    singular values of A, in the input's units.
    """

    satisfied: bool
    mu: float | None
    offending_eigenvalues: tuple


def _level_runs(x: np.ndarray, ptr: np.ndarray, tol: float) -> np.ndarray:
    """Whether each run x[ptr[k]:ptr[k+1]] spreads by at most tol times
    its largest value."""
    hi = np.maximum.reduceat(x, ptr[:-1])
    return hi - np.minimum.reduceat(x, ptr[:-1]) <= tol * hi


def _require_scalar_nonzero(ctx: Analysis) -> Matrix:
    if ctx.max_modulus == 0.0:
        raise PreconditionError("classification is undefined for the zero matrix")
    if not ctx.scalarity.is_scalar:
        raise NotScalarError(
            "classification is defined for scalar matrices; "
            "entries do not share a common phase"
        )
    return ctx.basis


def _proportionality(table: WalkTable, hi: int, lo: int, tol: float) -> float | None:
    """lambda when w^hi(i) = lambda * w^lo(i) for every row index, with
    lambda the ratio of the totals; None when the weights are not
    proportional."""
    w_lo = table.row(lo).real
    w_hi = table.row(hi).real
    lo_total = table.row_total(lo).real
    if lo_total <= 0.0:
        return None
    lam = table.row_total(hi).real / lo_total
    deviation = float(np.abs(w_hi - lam * w_lo).max())
    return lam if relative_gap(deviation, float(np.abs(w_hi).max())) <= tol else None


@reading
def _regular(ctx: Analysis) -> bool:
    """Whether the basis has equal row sums and equal column sums; like
    each class reading, raises PreconditionError where undefined."""
    _require_scalar_nonzero(ctx)
    rows, cols = ctx.sums
    return bool(_level_runs(rows, np.array([0, rows.size]), ctx.tol)[0]
                and _level_runs(cols, np.array([0, cols.size]), ctx.tol)[0])


@reading
def _pseudo_lambda(ctx: Analysis) -> float | None:
    """lambda with w^5(i) = lambda * w^3(i) on the basis's rows, in
    ``a``'s units; None when the basis is not pseudo regular."""
    return _proportionality(ctx.table(_require_scalar_nonzero(ctx), 5), 5, 3, ctx.tol)


@reading
def _per_component(ctx: Analysis) -> tuple:
    """A ComponentSummary per support component of the basis, sigma in
    ``a``'s units: the basis's sums gathered on each component's rows and
    columns, and the component sigmas."""
    _require_scalar_nonzero(ctx)
    (rows, row_ptr, cols, col_ptr), _ = _components(ctx)
    row_s, col_s = ctx.sums
    each = (_level_runs(row_s[rows], row_ptr, ctx.tol)
            & _level_runs(col_s[cols], col_ptr, ctx.tol)).tolist()
    return tuple(ComponentSummary(regular=ok, sigma=s)
                 for ok, s in zip(each, component_sigmas(ctx)))


def _almost_regular(ctx: Analysis) -> bool:
    """Whether every component of the basis is regular and attains its
    sigma, read off ``_per_component``."""
    _require_scalar_nonzero(ctx)
    sigma = ctx.top.sigma
    each = _per_component(ctx)
    return bool(each) and all(
        s.regular and relative_gap(abs(s.sigma - sigma), sigma) <= ctx.tol for s in each
    )


def classify(a: Matrix | Analysis, tol: float | None = None) -> ClassificationReport:
    """Full regularity classification of a nonzero scalar matrix.

    The report puts together the three class readings, ``_regular``,
    ``_pseudo_lambda`` and ``_per_component``, which almost regularity is
    read off.  Each is computed once per context, and each certificate
    reads only the one it checks.
    """
    ctx = Analysis.of(a, tol)
    nonneg = _require_scalar_nonzero(ctx)
    regular, lam, almost = _regular(ctx), _pseudo_lambda(ctx), _almost_regular(ctx)
    scalarity = ctx.scalarity
    if ctx.exponent:  # a nonnegative input is its own nonnegative part
        unscaled = ctx.input if nonneg is ctx.a else nonneg.times_pow2(ctx.exponent)
        scalarity = replace(scalarity, nonneg_part=unscaled)
    return ClassificationReport(
        scalarity=scalarity,
        is_regular=regular,
        is_pseudo_regular=lam is not None,
        pseudo_lambda=None if lam is None else ctx.unscaled(lam, 2),
        is_almost_regular=almost,
        per_component=tuple(replace(s, sigma=ctx.unscaled(s.sigma)) for s in _per_component(ctx)),
        tol=ctx.tol,
    )


def characterize_pseudo_regular(
    a: Matrix | Analysis, tol: float | None = None,
) -> PseudoRegularCharacterization:
    """Pseudo regularity through the spectrum of A A*.

    Equivalent to the index-by-index test in classify(): the order-3 row
    weight vector must be an eigenvector of A A* to a nonzero eigenvalue,
    and the all-ones vector must have no component in the eigenspace of
    any other nonzero eigenvalue.

    Read off one thin SVD U diag(s) V* of the context's nonnegative part:
    with lambda_i = (s_i / s_1)^2 and c = U* 1, the order-3 weights are
    sum_i lambda_i c_i u_i up to scale, and every test is relative.  A
    SparseMatrix is densified for the SVD.
    """
    ctx = Analysis.of(a, tol)
    tol = ctx.tol
    nonneg = _require_scalar_nonzero(ctx)
    u, sv, _ = _svd(nonneg.to_dense().data)
    lam = (sv / sv[0]) ** 2
    c = u.sum(axis=0)  # U* 1
    w3 = lam * c
    # Rayleigh quotient and residual of w3 under A A* / s_1^2.
    mu = float(np.dot(lam * w3, w3) / np.dot(w3, w3))
    residual = float(np.linalg.norm((lam - mu) * w3))
    is_eigenvector = residual <= tol * float(np.linalg.norm(w3))
    offending = [
        ctx.unscaled(float(v), 2)
        for v, lam_i, c_i in zip(sv * sv, lam, c)
        if lam_i > tol and abs(lam_i - mu) > tol and abs(c_i) > tol * np.sqrt(nonneg.m)
    ]
    satisfied = is_eigenvector and mu > tol and not offending
    mu = ctx.unscaled(mu * sv[0] ** 2, 2) if is_eigenvector else None
    return PseudoRegularCharacterization(satisfied, mu, tuple(offending))


def relaxed_pseudo_regular(a: Matrix | Analysis, r: int, s: int,
                           tol: float | None = None) -> bool:
    """Proportionality of order-r and order-s row weights, odd r > s >= 3.

    A weaker reading of pseudo regularity: w^r(i) = lambda * w^s(i) for
    every row index, with lambda the ratio of the totals.  Pseudo regular
    matrices satisfy it for every admissible pair.
    """
    r, s = check_order(r, "r"), check_order(s, "s")
    if r % 2 == 0 or s % 2 == 0 or not r > s >= 3:
        raise PreconditionError(f"orders must be odd with r > s >= 3, got r={r}, s={s}")
    ctx = Analysis.of(a, tol)
    nonneg = _require_scalar_nonzero(ctx)
    return _proportionality(ctx.table(nonneg, r), r, s, ctx.tol) is not None


@dataclass(frozen=True)
class EqualityCertificate:
    """One named equality condition, its gap, and the class it implies.

    theorem is the certificate label (T2, T2.1, T3, T4, or HWH).  gap is
    the relative residual of the equality, and holds is gap <= tol,
    except for T3 on scalar input, where holds is the agreement of its
    three readings and gap is only the residual of the third.
    implied_class_verified is True
    when the classification consequence promised by the certificate was
    confirmed, None when the input is not scalar and no consequence is
    claimed.  details carries the per-condition numbers.
    """

    theorem: str
    holds: bool
    gap: float
    implied_class_verified: bool | None
    details: dict


def _refuse_zero(ctx: Analysis) -> None:
    if ctx.max_modulus == 0.0:
        raise PreconditionError("certificates are undefined for the zero matrix")


def _certificate_basis(ctx: Analysis) -> tuple[bool, Matrix, float]:
    """Whether the input is scalar, the basis and its sigma in ``a``'s units."""
    _refuse_zero(ctx)
    return ctx.scalarity.is_scalar, ctx.basis, ctx.top.sigma


def _verdict(ctx: Analysis, theorem: str, gap: float, scalar: bool,
             implies: Callable[[Analysis], bool],
             details: dict, two_way: bool = False) -> EqualityCertificate:
    """The certificate of an equality that holds when gap <= tol.

    Only on scalar input does it check the class ``implies(ctx)``, and
    only when the check needs it: one way, the equality forces the class,
    so a failing equality reads no class; or, with two_way, the equality
    holds exactly when the class does.
    """
    holds = gap <= ctx.tol
    implied = None
    if scalar:
        implied = (implies(ctx) == holds) if two_way else (not holds or implies(ctx))
    return EqualityCertificate(theorem, holds, gap, implied, {**details, "scalar": scalar})


def certify_theorem2(a: Matrix | Analysis, s: int = 1, r: int = 0,
                     tol: float | None = None) -> EqualityCertificate:
    """sigma^(2s) * w^(2r+1)(R) = w^(2r+2s+1)(R) forces pseudo regularity.

    The implication is only claimed for scalar input; for anything else
    the certificate reports the equality gap and nothing more.
    """
    s, r = check_order(s, "s"), check_order(r, "r", 0)
    ctx = Analysis.of(a, tol)
    scalar, basis, sigma = _certificate_basis(ctx)
    # Where the equality holds on scalar input, pseudo_lambda reads order
    # 5 of this table: ask for it up front so one table serves both.
    table = ctx.table(basis, max(2 * r + 2 * s + 1, 5) if scalar else 2 * r + 2 * s + 1)
    gap = total_gap(sigma ** (2 * s) * table.row_total(2 * r + 1),
                    table.row_total(2 * r + 2 * s + 1))
    return _verdict(ctx, "T2", gap, scalar, lambda c: _pseudo_lambda(c) is not None,
                    {"s": s, "r": r, "equality_gap": gap})


def certify_theorem2_1(a: Matrix | Analysis, r: int = 1, s: int = 1,
                       tol: float | None = None) -> EqualityCertificate:
    """Row and column total equalities together force almost regularity.

    Checks sigma^(2s) * w^1(R) = w^(2s+1)(R) and
    sigma^(2r) * w^1(C) = w^(2r+1)(C); both must hold.
    """
    r, s = check_order(r, "r"), check_order(s, "s")
    ctx = Analysis.of(a, tol)
    scalar, basis, sigma = _certificate_basis(ctx)
    table = ctx.table(basis, max(2 * s, 2 * r) + 1)
    row_gap = total_gap(sigma ** (2 * s) * basis.m, table.row_total(2 * s + 1))
    col_gap = total_gap(sigma ** (2 * r) * basis.n, table.col_total(2 * r + 1))
    return _verdict(ctx, "T2.1", max(row_gap, col_gap), scalar, _almost_regular,
                    {"r": r, "s": s, "row_gap": row_gap, "col_gap": col_gap})


def certify_theorem3(a: Matrix | Analysis, r: int = 2, tol: float | None = None,
                     include_literal: bool = False) -> EqualityCertificate:
    """Three readings of almost regularity, checked against each other.

    (i)   the classification itself;
    (ii)  the support condition w^r(i) * w^r(j) = sigma^(2(r-1)) on every
          support pair (moduli for complex weights);
    (iii) equality in the order-r weighted lower bound,
          sigma * sqrt(|w^r(R) w^r(C)|) = |sum_ij a_ij sqrt(|w^r(i) w^r(j)|)|.

    For scalar input the certificate holds when the three booleans agree;
    the agreement is guaranteed at even r >= 2 and can legitimately break
    at odd r, where the aggregate equality (iii) is blind to the
    component structure that (i) and (ii) see.  Non-scalar input reduces
    the certificate to the bare equality (iii).  include_literal adds the
    residual of the unscaled support identity
    |w^r(i) w^r(j)| = sigma^2 |w^r(R) w^r(C)| as a diagnostic.
    """
    r = check_order(r, "r")
    ctx = Analysis.of(a, tol)
    scalar, basis, sigma = _certificate_basis(ctx)
    table = ctx.table(basis, r)
    wr = table.row(r)
    wc = table.col(r)
    total_r = table.row_total(r)
    total_c = table.col_total(r)
    # The products and their moduli on the support are the only arrays the
    # size of the stored entries, with a copy for include_literal and, for
    # a complex basis, the complex weighted terms.  A scalar basis has
    # nonnegative weights, so its products are their own moduli; the rest
    # runs in place.
    pairs = basis.pair_products(wr, wc)
    if not scalar:
        pairs = np.abs(pairs)
    pair_mods = pairs[ctx.support]
    literal_mods = pair_mods.copy() if include_literal else None
    np.sqrt(pairs, out=pairs)
    if basis.is_real():
        weighted_sum = np.multiply(basis.values, pairs, out=pairs).sum()
    else:
        weighted_sum = (basis.values * pairs).sum()

    target = sigma ** (2 * (r - 1))
    pair_mods -= target
    support_gap = relative_gap(float(np.abs(pair_mods, out=pair_mods).max()), target)
    cond_ii = support_gap <= ctx.tol

    rhs = abs(complex(weighted_sum))
    lhs = sigma * float(np.sqrt(abs(total_r * total_c)))
    equality_gap = relative_gap(abs(lhs - rhs), lhs, rhs)
    cond_iii = equality_gap <= ctx.tol

    details: dict = {
        "r": r,
        "scalar": scalar,
        "support_gap": support_gap,
        "support_holds": cond_ii,
        "equality_gap": equality_gap,
        "equality_holds": cond_iii,
    }
    if include_literal:
        literal_target = sigma * sigma * abs(total_r * total_c)
        literal_mods -= literal_target
        details["literal_gap"] = relative_gap(
            float(np.abs(literal_mods, out=literal_mods).max()), literal_target)

    cond_i = details["almost_regular"] = _almost_regular(ctx) if scalar else None
    holds = (cond_i == cond_ii == cond_iii) if scalar else cond_iii
    return EqualityCertificate("T3", holds, equality_gap, holds if scalar else None, details)


def certify_theorem4(a: Matrix | Analysis,
                     tol: float | None = None) -> EqualityCertificate:
    """Equality sigma = |sum of entries| / sqrt(n m) pins down regularity.

    For scalar input this is a two-way check: the equality must hold
    exactly when the classification says regular.
    """
    ctx = Analysis.of(a, tol)
    scalar, basis, sigma = _certificate_basis(ctx)
    mean_value = abs(ctx.total) / float(np.sqrt(basis.m * basis.n))
    gap = relative_gap(abs(sigma - mean_value), sigma)
    return _verdict(ctx, "T4", gap, scalar, _regular,
                    {"sigma": ctx.unscaled(sigma), "mean_value": ctx.unscaled(mean_value)},
                    two_way=True)


def hwh_equality_certificate(a: Matrix | Analysis,
                             tol: float | None = None) -> EqualityCertificate:
    """Attainment of the degree-product bound versus its support condition.

    The bound meets sigma exactly when d_i * d_j = sigma^2 on every
    support pair; the certificate verifies the two readings agree.
    """
    ctx = Analysis.of(a, tol)
    _refuse_zero(ctx)
    report = hwh_bound(ctx)
    gap = relative_gap(abs(float(np.ldexp(report.gap, -ctx.exponent))),
                       ctx.top.sigma)
    holds = gap <= ctx.tol
    support_condition = bool(report.certificate)
    return EqualityCertificate(
        "HWH", holds, gap, holds == support_condition,
        {"value": report.value, "sigma": report.sigma,
         "support_condition": support_condition},
    )
