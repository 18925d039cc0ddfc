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
claims nothing about classification, which is undefined there.

Each function takes a DenseMatrix or an ``Analysis`` of one.  ``tol``
applies only to a matrix: a context brings its own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Analysis
from .core import (
    DEFAULT_TOL,
    DenseMatrix,
    ScalarityResult,
    col_sums,
    conj_transpose,
    matmul,
    row_sums,
    support_mask,
    total_sum,
)
from .errors import NotScalarError, PreconditionError
from .spectral import hermitian_eigen
from .walks import WalkTable


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
    break the orthogonality requirement.
    """

    satisfied: bool
    mu: float | None
    offending_eigenvalues: tuple


def _sums_regular(mat: DenseMatrix, tol: float) -> bool:
    r = row_sums(mat).real
    c = col_sums(mat).real
    r_spread = float(r.max() - r.min())
    c_spread = float(c.max() - c.min())
    return r_spread <= tol * max(float(r.max()), 1e-300) and c_spread <= tol * max(
        float(c.max()), 1e-300
    )


def _require_scalar_nonzero(ctx: Analysis) -> DenseMatrix:
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
    return lam if deviation <= tol * max(1.0, float(np.abs(w_hi).max())) else None


def classify(a: DenseMatrix | Analysis, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Full regularity classification of a nonzero scalar matrix."""
    ctx = Analysis.of(a, tol)
    tol = ctx.tol
    nonneg = _require_scalar_nonzero(ctx)
    regular = _sums_regular(nonneg, tol)
    lam = _proportionality(ctx.table(nonneg, 5), 5, 3, tol)

    sigma = ctx.singular(nonneg).sigma
    summaries = [
        ComponentSummary(regular=_sums_regular(sub, tol), sigma=ctx.singular(sub).sigma)
        for sub in ctx.submatrices(nonneg)
    ]
    almost = bool(summaries) and all(
        s.regular and abs(s.sigma - sigma) <= tol * max(1.0, sigma) for s in summaries
    )
    return ClassificationReport(
        scalarity=ctx.scalarity,
        is_regular=regular,
        is_pseudo_regular=lam is not None,
        pseudo_lambda=lam,
        is_almost_regular=almost,
        per_component=tuple(summaries),
        tol=tol,
    )


def characterize_pseudo_regular(
    a: DenseMatrix | Analysis, tol: float = DEFAULT_TOL,
) -> PseudoRegularCharacterization:
    """Pseudo regularity through the spectrum of A A*.

    Equivalent to the index-by-index test in classify(): the order-3 row
    weight vector must be an eigenvector of A A* to a nonzero eigenvalue,
    and the all-ones vector must have no component in the eigenspace of
    any other nonzero eigenvalue.
    """
    ctx = Analysis.of(a, tol)
    tol = ctx.tol
    nonneg = _require_scalar_nonzero(ctx)
    m = nonneg.m
    gram = matmul(nonneg, conj_transpose(nonneg))
    w3 = ctx.table(nonneg, 3).row(3).real
    norm_w3 = float(np.linalg.norm(w3))
    pairs = hermitian_eigen(gram)
    lam_scale = max(1.0, pairs[0][0])
    if norm_w3 == 0.0:
        return PseudoRegularCharacterization(False, None, ())
    gw3 = gram.data.real @ w3
    mu = float(np.dot(w3, gw3) / np.dot(w3, w3))
    eigen_residual = float(np.linalg.norm(gw3 - mu * w3))
    is_eigenvector = eigen_residual <= tol * lam_scale * max(norm_w3, 1e-300)
    mu_nonzero = mu > tol * lam_scale
    ones = np.ones(m)
    offending = []
    for val, vec in pairs:
        if val <= tol * lam_scale:
            continue
        if abs(val - mu) <= tol * lam_scale:
            continue
        if abs(np.vdot(vec, ones)) > tol * np.sqrt(m):
            offending.append(val)
    satisfied = is_eigenvector and mu_nonzero and not offending
    return PseudoRegularCharacterization(satisfied, mu if is_eigenvector else None,
                                         tuple(offending))


def relaxed_pseudo_regular(a: DenseMatrix | Analysis, r: int, s: int,
                           tol: float = DEFAULT_TOL) -> bool:
    """Proportionality of order-r and order-s row weights, odd r > s >= 3.

    A weaker reading of pseudo regularity: w^r(i) = lambda * w^s(i) for
    every row index, with lambda the ratio of the totals.  Pseudo regular
    matrices satisfy it for every admissible pair.
    """
    if r % 2 == 0 or s % 2 == 0 or not r > s >= 3:
        raise PreconditionError(
            f"orders must be odd with r > s >= 3, got r={r}, s={s}"
        )
    ctx = Analysis.of(a, tol)
    nonneg = _require_scalar_nonzero(ctx)
    return _proportionality(ctx.table(nonneg, r), r, s, ctx.tol) is not None


@dataclass(frozen=True)
class EqualityCertificate:
    """One named equality condition, its gap, and the class it implies.

    theorem is the certificate label (T2, T2.1, T3, T4, or HWH).  holds
    reports whether the condition is met at the tolerance; gap is the
    relative residual that decided it.  implied_class_verified is True
    when the classification consequence promised by the certificate was
    confirmed, None when the input is not scalar and no consequence is
    claimed.  details carries the per-condition numbers.
    """

    theorem: str
    holds: bool
    gap: float
    implied_class_verified: bool | None
    details: dict


def _certificate_basis(ctx: Analysis) -> tuple[bool, DenseMatrix]:
    """Whether the input is scalar, and the matrix the certificate
    arithmetic runs on: the nonnegative part when it is, the raw matrix
    otherwise."""
    if ctx.max_modulus == 0.0:
        raise PreconditionError("certificates are undefined for the zero matrix")
    return ctx.scalarity.is_scalar, ctx.basis


def certify_theorem2(a: DenseMatrix | Analysis, s: int = 1, r: int = 0,
                     tol: float = DEFAULT_TOL) -> EqualityCertificate:
    """sigma^(2s) * w^(2r+1)(R) = w^(2r+2s+1)(R) forces pseudo regularity.

    The implication is only claimed for scalar input; for anything else
    the certificate reports the equality gap and nothing more.
    """
    ctx = Analysis.of(a, tol)
    if s < 1 or r < 0:
        raise PreconditionError(f"need s >= 1 and r >= 0, got s={s}, r={r}")
    scalar, basis = _certificate_basis(ctx)
    sigma = ctx.singular(basis).sigma
    table = ctx.table(basis, 2 * r + 2 * s + 1)
    lhs = sigma ** (2 * s) * table.row_total(2 * r + 1)
    rhs = table.row_total(2 * r + 2 * s + 1)
    gap = abs(lhs - rhs) / max(1.0, abs(rhs))
    holds = gap <= ctx.tol
    if not scalar:
        implied = None
    elif not holds:
        implied = True
    else:
        implied = ctx.classification.is_pseudo_regular
    return EqualityCertificate(
        "T2", holds, gap, implied,
        {"s": s, "r": r, "equality_gap": gap, "scalar": scalar},
    )


def certify_theorem2_1(a: DenseMatrix | Analysis, r: int = 1, s: int = 1,
                       tol: float = DEFAULT_TOL) -> EqualityCertificate:
    """Row and column total equalities together force almost regularity.

    Checks sigma^(2s) * w^1(R) = w^(2s+1)(R) and
    sigma^(2r) * w^1(C) = w^(2r+1)(C); both must hold.
    """
    ctx = Analysis.of(a, tol)
    if r < 1 or s < 1:
        raise PreconditionError(f"need r >= 1 and s >= 1, got r={r}, s={s}")
    scalar, basis = _certificate_basis(ctx)
    sigma = ctx.singular(basis).sigma
    table = ctx.table(basis, max(2 * s, 2 * r) + 1)
    row_rhs = table.row_total(2 * s + 1)
    col_rhs = table.col_total(2 * r + 1)
    row_gap = abs(sigma ** (2 * s) * basis.m - row_rhs) / max(1.0, abs(row_rhs))
    col_gap = abs(sigma ** (2 * r) * basis.n - col_rhs) / max(1.0, abs(col_rhs))
    gap = max(row_gap, col_gap)
    holds = gap <= ctx.tol
    if not scalar:
        implied = None
    elif not holds:
        implied = True
    else:
        implied = ctx.classification.is_almost_regular
    return EqualityCertificate(
        "T2.1", holds, gap, implied,
        {"r": r, "s": s, "row_gap": row_gap, "col_gap": col_gap, "scalar": scalar},
    )


def certify_theorem3(a: DenseMatrix | Analysis, r: int = 2, tol: float = DEFAULT_TOL,
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
    ctx = Analysis.of(a, tol)
    if r < 1:
        raise PreconditionError(f"order r must be at least 1, got {r}")
    tol = ctx.tol
    scalar, basis = _certificate_basis(ctx)
    sigma = ctx.singular(basis).sigma
    table = ctx.table(basis, r)
    wr = table.row(r)
    wc = table.col(r)
    total_r = table.row_total(r)
    total_c = table.col_total(r)
    # The basis's own support: an entry of a scalar input can pass the
    # phase test yet have a nonnegative part at or below the zero cutoff.
    support = ctx.support if basis is ctx.a else support_mask(basis)
    pair_abs = np.abs(np.outer(wr, wc))
    pair_mods = pair_abs[support]

    target = sigma ** (2 * (r - 1))
    support_gap = float(np.abs(pair_mods - target).max()) / max(1.0, target)
    cond_ii = support_gap <= tol

    rhs = abs(complex((basis.data * np.sqrt(pair_abs)).sum()))
    lhs = sigma * float(np.sqrt(abs(total_r * total_c)))
    equality_gap = abs(lhs - rhs) / max(1.0, lhs, rhs)
    cond_iii = equality_gap <= tol

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
        details["literal_gap"] = float(
            np.abs(pair_mods - literal_target).max()
        ) / max(1.0, literal_target)

    if scalar:
        cond_i = ctx.classification.is_almost_regular
        details["almost_regular"] = cond_i
        holds = cond_i == cond_ii == cond_iii
        implied = holds
    else:
        details["almost_regular"] = None
        holds = cond_iii
        implied = None
    return EqualityCertificate("T3", holds, equality_gap, implied, details)


def certify_theorem4(a: DenseMatrix | Analysis,
                     tol: float = DEFAULT_TOL) -> EqualityCertificate:
    """Equality sigma = |sum of entries| / sqrt(n m) pins down regularity.

    For scalar input this is a two-way check: the equality must hold
    exactly when the classification says regular.
    """
    ctx = Analysis.of(a, tol)
    scalar, basis = _certificate_basis(ctx)
    sigma = ctx.singular(basis).sigma
    mean_value = abs(total_sum(basis)) / float(np.sqrt(basis.m * basis.n))
    gap = abs(sigma - mean_value) / max(1.0, sigma)
    holds = gap <= ctx.tol
    if scalar:
        implied = ctx.classification.is_regular == holds
    else:
        implied = None
    return EqualityCertificate(
        "T4", holds, gap, implied,
        {"sigma": sigma, "mean_value": mean_value, "scalar": scalar},
    )


def hwh_equality_certificate(a: DenseMatrix | Analysis,
                             tol: float = DEFAULT_TOL) -> EqualityCertificate:
    """Attainment of the degree-product bound versus its support condition.

    The bound meets sigma exactly when d_i * d_j = sigma^2 on every
    support pair; the certificate verifies the two readings agree.
    """
    ctx = Analysis.of(a, tol)
    report = ctx.hwh_report
    gap = abs(report.gap) / max(1.0, report.sigma)
    holds = report.tight
    support_condition = bool(report.certificate)
    return EqualityCertificate(
        "HWH", holds, gap, holds == support_condition,
        {"value": report.value, "sigma": report.sigma,
         "support_condition": support_condition},
    )
