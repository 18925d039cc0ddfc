"""Largest singular value, full singular spectrum, and the walk-ratio estimator.

The largest singular value is found by deterministic power iteration on
the smaller of the two Gram matrices A A* and A* A.  The start vector is
the normalized all-ones vector plus a fixed alternating-sign perturbation
of size 1e-6, so repeated runs on the same matrix are bit-identical.  The
full spectrum goes through the dense Hermitian eigensolver instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DenseMatrix, conj_transpose, matmul
from .errors import ConvergenceError, PreconditionError
from .walks import walk_table

_START_PERTURBATION = 1e-6

# Relative eigenvalue spread treated as one degenerate cluster when the
# top eigenspace is assembled for the estimator's orthogonality test.
_TOP_CLUSTER_RTOL = 1e-8

_ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class SpectralResult:
    """Converged largest singular triple.

    sigma is the largest singular value; left (length m) and right
    (length n) are unit vectors with A right = sigma left and
    A* left = sigma right up to the reported residual, which is the sum
    of the two defect norms.  iterations counts Gram-matrix applications.
    """

    sigma: float
    left: np.ndarray
    right: np.ndarray
    iterations: int
    residual: float


def _start_vector(dim: int) -> np.ndarray:
    v = np.ones(dim) / np.sqrt(dim)
    v = v + _START_PERTURBATION * ((-1.0) ** np.arange(dim))
    v = v / np.linalg.norm(v)
    return v.astype(np.complex128)


def _finalize(a: DenseMatrix, v: np.ndarray, lam: float, left_side: bool,
              iterations: int) -> SpectralResult:
    data = a.data
    sigma = float(np.sqrt(max(lam, 0.0)))
    if left_side:
        left = v
        other = data.conj().T @ v
        norm = np.linalg.norm(other)
        if norm > 0.0:
            right = other / norm
        else:
            right = np.zeros(a.n, dtype=np.complex128)
            right[0] = 1.0
    else:
        right = v
        other = data @ v
        norm = np.linalg.norm(other)
        if norm > 0.0:
            left = other / norm
        else:
            left = np.zeros(a.m, dtype=np.complex128)
            left[0] = 1.0
    residual = float(
        np.linalg.norm(data @ right - sigma * left)
        + np.linalg.norm(data.conj().T @ left - sigma * right)
    )
    left = left.copy()
    right = right.copy()
    left.setflags(write=False)
    right.setflags(write=False)
    return SpectralResult(sigma, left, right, iterations, residual)


def largest_singular(a: DenseMatrix, tol: float = 1e-12,
                     max_iter: int = 10_000) -> SpectralResult:
    """Power iteration for the largest singular value.

    Convergence is declared when the combined defect residual drops below
    ``tol * max(1, sigma)``; the absolute residual is reported.  Raises
    ConvergenceError (with the best iterate attached) when ``max_iter``
    Gram applications are not enough.
    """
    if max_iter < 1:
        raise PreconditionError("max_iter must be positive")
    data = a.data
    m, n = data.shape
    left_side = m <= n
    gram = data @ data.conj().T if left_side else data.conj().T @ data
    dim = m if left_side else n
    v = _start_vector(dim)
    lam = 0.0
    iterations = 0
    restarts = 0
    shrink = 1.0
    while iterations < max_iter:
        u = gram @ v
        iterations += 1
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            if not gram.any():
                return _finalize(a, v, 0.0, left_side, iterations)
            # The iterate fell exactly into the nullspace; restart from
            # canonical basis vectors, still deterministically.
            if restarts >= dim:
                return _finalize(a, v, 0.0, left_side, iterations)
            v = np.zeros(dim, dtype=np.complex128)
            v[restarts] = 1.0
            restarts += 1
            continue
        lam = float(np.real(np.vdot(v, u)))
        res_g = float(np.linalg.norm(u - lam * v))
        v = u / nu
        if res_g <= 0.25 * shrink * tol * max(1.0, lam):
            result = _finalize(a, v, lam, left_side, iterations)
            if result.residual <= tol * max(1.0, result.sigma):
                return result
            shrink *= 0.25
    best = _finalize(a, v, lam, left_side, iterations)
    raise ConvergenceError(
        f"power iteration did not reach residual {tol:g} within {max_iter} steps "
        f"(best sigma {best.sigma:.12g}, residual {best.residual:.3g})",
        best=best,
    )


def singular_values(a: DenseMatrix) -> np.ndarray:
    """All singular values, descending.

    Computed as square roots of the Hermitian eigenvalues of the smaller
    Gram matrix; small negative eigenvalues from rounding are clipped to
    zero.
    """
    data = a.data
    m, n = data.shape
    gram = data @ data.conj().T if m <= n else data.conj().T @ data
    try:
        eigvals = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    vals = np.sqrt(np.clip(eigvals, 0.0, None))[::-1].copy()
    vals.setflags(write=False)
    return vals


def hermitian_eigen(h: DenseMatrix, tol: float = 1e-10) -> list[tuple[float, np.ndarray]]:
    """Full eigensystem of a Hermitian matrix, eigenvalues descending.

    Rejects input whose Hermitian defect exceeds ``tol`` relative to the
    Frobenius norm.  Eigenvectors come back orthonormal, one unit vector
    per eigenvalue, as (eigenvalue, vector) pairs.
    """
    data = h.data
    if data.shape[0] != data.shape[1]:
        raise PreconditionError("hermitian_eigen needs a square matrix")
    scale = float(np.linalg.norm(data))
    defect = float(np.linalg.norm(data - data.conj().T))
    if defect > tol * max(scale, 1e-300):
        raise PreconditionError(
            f"matrix is not Hermitian: defect {defect:.3g} against scale {scale:.3g}"
        )
    try:
        eigvals, eigvecs = np.linalg.eigh(data)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    pairs = []
    for k in range(eigvals.shape[0] - 1, -1, -1):
        vec = eigvecs[:, k].copy()
        vec.setflags(write=False)
        pairs.append((float(eigvals[k]), vec))
    return pairs


@dataclass(frozen=True)
class RatioEstimate:
    """Walk-total ratio sequence converging to sigma^(2s).

    ratios[r] is the order 2r+2s+1 row total divided by the order 2r+1
    row total; max_ratios holds the same quotient taken entrywise and
    maximized over row indices with a usable denominator.  degenerate is
    set when the denominators collapse toward zero while sigma stays
    positive, or when the all-ones vector is orthogonal to the top
    eigenspace of A A*; in that case no limit is reported even if the
    ratio sequence happens to settle.
    """

    ratios: tuple[float, ...]
    max_ratios: tuple[float, ...]
    degenerate: bool
    limit: float | None
    s: int


def sigma_ratio_estimate(a: DenseMatrix, s: int = 1, r_max: int = 60) -> RatioEstimate:
    """Estimate sigma^(2s) from ratios of odd-order walk totals.

    Defined for real matrices.  The limit is reported only when the last
    two aggregate ratios agree to a relative 1e-9 and the degeneracy
    checks pass; the entrywise maximum sequence is returned for
    inspection but never drives the limit.
    """
    if s < 1:
        raise PreconditionError("s must be at least 1")
    if r_max < 1:
        raise PreconditionError("r_max must be at least 1")
    if not a.is_real():
        raise PreconditionError("ratio estimator is defined for real matrices")
    m = a.m
    gram = matmul(a, conj_transpose(a))
    pairs = hermitian_eigen(gram)
    lam_max = max(pairs[0][0], 0.0)
    sigma = float(np.sqrt(lam_max))
    degenerate = False
    if sigma > 0.0:
        ones = np.ones(m)
        cluster = lam_max - _TOP_CLUSTER_RTOL * max(1.0, lam_max)
        proj_sq = sum(
            abs(np.vdot(vec, ones)) ** 2 for val, vec in pairs if val >= cluster
        )
        if float(np.sqrt(proj_sq)) <= _ORTHOGONALITY_TOL * np.sqrt(m):
            degenerate = True
    table = walk_table(a, 2 * r_max + 2 * s + 1)
    ratios: list[float] = []
    max_ratios: list[float] = []
    sigma2_pow = 1.0
    for r in range(r_max + 1):
        den = table.row_total(2 * r + 1).real
        floor = 1e-12 * m * sigma2_pow
        if den <= floor:
            if sigma > 0.0:
                degenerate = True
            break
        num = table.row_total(2 * r + 2 * s + 1).real
        ratios.append(num / den)
        den_vec = table.row(2 * r + 1).real
        num_vec = table.row(2 * r + 2 * s + 1).real
        usable = den_vec > 1e-12 * sigma2_pow
        if usable.any():
            max_ratios.append(float((num_vec[usable] / den_vec[usable]).max()))
        sigma2_pow *= lam_max if lam_max > 0.0 else 1.0
    limit = None
    if not degenerate:
        if sigma == 0.0:
            limit = 0.0
        elif len(ratios) >= 2 and abs(ratios[-1] - ratios[-2]) < 1e-9 * max(
            abs(ratios[-1]), 1e-300
        ):
            limit = ratios[-1]
    return RatioEstimate(tuple(ratios), tuple(max_ratios), degenerate, limit, s)
