"""Largest singular value, full singular spectrum, and the walk-ratio estimator.

Every spectrum is read off A itself, never off a Gram matrix A A*, in
float64 for a real A and complex128 otherwise, after ``_scaled`` divides
A by the power of two 2^e that brings its largest real or imaginary part
into [0.5, 1) (an ``Analysis`` does so once): no norm overflows or
underflows, and sigma(2^k A) is exactly 2^k sigma(A).  ``_unscaled``
raises WalkScaleError for a result past float64 in the input's units.
Up to ``_DENSE_MAX_DIM`` rows or columns LAPACK's dense SVD gives the
largest singular value; a larger A goes through Golub-Kahan-Lanczos
bidiagonalization with full reorthogonalization, from the normalized
all-ones vector plus a fixed alternating-sign perturbation of size 1e-6,
so repeated runs are bit-identical.  The full spectrum comes from
LAPACK's dense SVD without vectors at every size, the reference that
tests hold the Lanczos route to.  ``hermitian_eigen`` is the one solver
that takes a Hermitian matrix as given.

Lanczos only multiplies by A and by its transpose, taken once per solve,
so a ``SparseMatrix`` is solved in its CSR storage at a cost that scales
with its stored entries.  One with at most ``_DENSE_MAX_DIM`` rows or
columns is densified for LAPACK, as are the inputs of ``singular_values``
and ``hermitian_eigen``, which need every entry.

``sigma_ratio_estimate`` reads no walk table: it walks the odd row levels
(A A^T)^t 1 of the basis of A / 2^e as one chain, each level divided by
the power of two nearest sigma^(2t), so it reaches any order without
leaving float64 and with the bits of the undivided levels' ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MAX_ITER, Matrix, check_order, check_tol, col_sums, relative_gap
from .errors import ConvergenceError, PreconditionError, WalkScaleError

_START_PERTURBATION = 1e-6

# Largest min(m, n) that goes to the dense LAPACK SVD.  Timed with numpy
# 2.4 and OpenBLAS on one thread: on uniform nonnegative inputs, whose top
# singular value stands apart (5 to 7 Lanczos steps), Lanczos overtakes
# the dense SVD between 40 and 48 per side, square or 1:3.  Gaussian
# inputs, with no such gap (20 to 50 steps), favour the dense SVD beyond
# 128.
_DENSE_MAX_DIM = 48

# Rows of each Lanczos basis allocated before the first doubling.
_BASIS_START = 32

# A settled ratio sequence farther than this, relative, from sigma^(2s)
# has converged to a lower singular value: the all-ones vector misses
# the top singular space, or nearly so.
_LIMIT_RTOL = 1e-6


@dataclass(frozen=True)
class SpectralResult:
    """Converged largest singular triple.

    sigma is the largest singular value; left (length m) and right
    (length n) are unit vectors with A right = sigma left and
    A* left = sigma right up to the reported residual, which is the sum
    of the two defect norms.  The vectors are float64 for a real input
    and complex128 otherwise.  iterations counts Lanczos steps, and is 0
    when the dense SVD gave the answer.
    """

    sigma: float
    left: np.ndarray
    right: np.ndarray
    iterations: int
    residual: float


def _start_vector(dim: int) -> np.ndarray:
    v = np.ones(dim) / np.sqrt(dim)
    v = v + _START_PERTURBATION * ((-1.0) ** np.arange(dim))
    return v / np.linalg.norm(v)


def _scaled(a: Matrix) -> tuple[Matrix, int]:
    """A / 2^e, exactly, with its largest real or imaginary part in
    [0.5, 1), and e; ``a`` itself when e is 0."""
    parts = a.values.view(np.float64)  # a complex entry as its two float64 parts
    exponent = math.frexp(max(parts.max(initial=0.0), -parts.min(initial=0.0)))[1]
    return (a, 0) if exponent == 0 else (a.times_pow2(-exponent), exponent)


def _unscaled(x: float, exponent: int) -> float:
    """x * 2^exponent; WalkScaleError when that overflows float64."""
    try:
        return math.ldexp(x, exponent)  # exact, and cheaper than np.errstate
    except OverflowError:
        raise WalkScaleError(f"{x:.6g} * 2^{exponent} overflows float64") from None


def _svd(x: np.ndarray, compute_uv: bool = True):
    """Thin ``np.linalg.svd``; a LAPACK failure raises ConvergenceError."""
    try:
        return np.linalg.svd(x, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense SVD failed: {exc}") from exc


def _adjoint_times(bt, x: np.ndarray) -> np.ndarray:
    """B* x from the plain transpose ``bt`` of B, without conjugating B."""
    return (bt @ x.conj()).conj()


def _orthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """x minus its projection on the orthonormal rows of ``basis``.

    Classical Gram-Schmidt applied twice, which keeps the Lanczos vectors
    orthogonal to working precision.
    """
    for _ in range(2):
        x = x - (basis @ x.conj()).conj() @ basis
    return x


def _triple(b, exponent: int, sigma: float, left: np.ndarray,
            right: np.ndarray, iterations: int) -> SpectralResult:
    """The SpectralResult of a triple of the scaled matrix ``b``, an
    ndarray or a csr_array, with sigma and the residual scaled back by
    2^exponent."""
    residual = float(
        np.linalg.norm(b @ right - sigma * left)
        + np.linalg.norm(_adjoint_times(b.T, left) - sigma * right)
    )
    left = np.array(left)
    right = np.array(right)
    left.setflags(write=False)
    right.setflags(write=False)
    return SpectralResult(_unscaled(sigma, exponent), left, right, iterations,
                          _unscaled(residual, exponent))


def _grown(basis: np.ndarray, k: int, cap: int) -> np.ndarray:
    """A basis with room for twice as many rows, at most ``cap``, holding
    the first ``k`` rows of ``basis``."""
    out = np.empty((min(2 * len(basis), cap), basis.shape[1]), dtype=basis.dtype)
    out[:k] = basis[:k]
    return out


def _golub_kahan_lanczos(scaled: Matrix, exponent: int, tol: float,
                         max_iter: int) -> SpectralResult:
    """Lanczos bidiagonalization B V_k = U_k B_k with B_k upper bidiagonal.

    B is ``scaled.data``; it is only multiplied by vectors, and its
    transpose is taken once.

    The top singular triple (s, p, q) of B_k gives sigma = s, left U_k p
    and right V_k q; its residual is beta_k |p_k|, read off the next
    Lanczos coefficient.  That estimate decides when to stop; the
    residual computed on B decides whether to accept.  A zero alpha or
    beta means the Krylov space is exhausted and the triple is exact.
    """
    b = scaled.data
    m, n = b.shape
    bt = b.T
    cap = min(max_iter, m, n)
    # The bases start small and double when full: a solve touches only
    # the rows it reaches, and at 10^5 x 10^5 cap rows would reserve 16 GB.
    us = np.empty((min(cap, _BASIS_START), m), dtype=b.dtype)
    vs = np.empty((min(cap, _BASIS_START), n), dtype=b.dtype)
    vs[0] = _start_vector(n)
    p = b @ vs[0]
    if not p.any():
        # The start vector lies in the nullspace; restart from the unit
        # vector of the column of largest norm, which is nonzero.
        norms2 = col_sums(scaled.with_values(np.abs(scaled.values) ** 2))
        vs[0] = 0.0
        vs[0, int(np.argmax(norms2))] = 1.0
        p = b @ vs[0]
    # B_k is the leading k x k block; it grows with the bases.
    bidiag = np.zeros((len(us), len(us)))
    alpha = float(np.linalg.norm(p))
    bidiag[0, 0] = alpha
    us[0] = p / alpha
    for k in range(1, cap + 1):
        r = _orthogonalize(_adjoint_times(bt, us[k - 1]) - alpha * vs[k - 1], vs[:k])
        beta = float(np.linalg.norm(r))
        ritz_left, ritz, ritz_right_h = _svd(bidiag[:k, :k])
        sigma = float(ritz[0])
        if beta * abs(ritz_left[-1, 0]) <= tol * sigma or beta == 0.0 or k == cap:
            best = _triple(b, exponent, sigma, ritz_left[:, 0] @ us[:k],
                           ritz_right_h[0] @ vs[:k], k)
            if relative_gap(best.residual, best.sigma) <= tol:
                return best
            if beta == 0.0 or k == cap:
                break
        if k == len(vs):
            us, vs = _grown(us, k, cap), _grown(vs, k, cap)
            bidiag = np.pad(bidiag, (0, len(vs) - k))
        vs[k] = r / beta
        p = _orthogonalize(b @ vs[k] - beta * us[k - 1], us[:k])
        alpha = float(np.linalg.norm(p))
        bidiag[k - 1, k], bidiag[k, k] = beta, alpha
        # A zero alpha leaves a zero row, so the next beta is 0 as well.
        us[k] = p / alpha if alpha > 0.0 else p
    raise ConvergenceError(
        f"Lanczos bidiagonalization did not reach residual {tol:g} within "
        f"{best.iterations} steps (best sigma {best.sigma:.12g}, "
        f"residual {best.residual:.3g})",
        best=best,
    )


def sigma_method(shape: tuple[int, int]) -> str:
    """The route ``largest_singular`` takes for a matrix of this shape."""
    return "lapack_svd" if min(shape) <= _DENSE_MAX_DIM else "golub_kahan_lanczos"


def largest_singular(a: Matrix, tol: float = 1e-12,
                     max_iter: int = DEFAULT_MAX_ITER) -> SpectralResult:
    """The largest singular triple, by dense SVD or Lanczos bidiagonalization.

    Convergence is declared when the combined defect residual, relative
    to sigma by ``core.relative_gap``, is at most ``tol``; the absolute
    residual is reported.  Raises
    ConvergenceError (with the best triple attached) when ``max_iter``
    Lanczos steps are not enough.  A SparseMatrix stays sparse for
    Lanczos and is densified for the dense SVD.
    """
    tol, max_iter = check_tol(tol), check_order(max_iter, "max_iter")
    dense = sigma_method(a.shape) == "lapack_svd"
    scaled, exponent = _scaled(a.to_dense() if dense else a)
    b = scaled.data
    m, n = b.shape
    if not scaled.values.any():
        left = np.zeros(m, dtype=b.dtype)
        right = np.zeros(n, dtype=b.dtype)
        left[0] = right[0] = 1.0
        return _triple(b, 0, 0.0, left, right, 0)
    if not dense:
        return _golub_kahan_lanczos(scaled, exponent, tol, max_iter)
    u, s, vh = _svd(b)
    result = _triple(b, exponent, float(s[0]), u[:, 0], vh[0].conj(), 0)
    if relative_gap(result.residual, result.sigma) > tol:
        raise ConvergenceError(
            f"dense SVD residual {result.residual:.3g} exceeds {tol:g}", best=result
        )
    return result


def singular_values(a: Matrix) -> np.ndarray:
    """All min(m, n) singular values, descending, by LAPACK's dense SVD.

    Computed on A, not as square roots of Gram eigenvalues: that route
    leaves about sqrt(eps) * sigma where a singular value is exactly zero,
    while the SVD leaves a few eps * sigma.  A SparseMatrix is densified.
    """
    vals = _svd(a.to_dense().data, compute_uv=False)
    vals.setflags(write=False)
    return vals


def hermitian_eigen(h: Matrix, tol: float = 1e-10) -> list[tuple[float, np.ndarray]]:
    """Full eigensystem of a Hermitian matrix, eigenvalues descending.

    Rejects input whose Hermitian defect exceeds ``tol`` relative to the
    Frobenius norm.  Eigenvectors come back orthonormal, one unit vector
    per eigenvalue, as (eigenvalue, vector) pairs.  A SparseMatrix is
    densified.
    """
    tol = check_tol(tol)
    data = h.to_dense().data
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
    maximized over row indices with a usable denominator.  Both are in
    the input's units: each is the quotient of the walk weights of
    A / 2^e, rounded once, times exactly 2^(2se).  degenerate is set
    when the denominators collapse toward zero while sigma stays
    positive, or when the sequence settles farther than 1e-6 relative
    from sigma^(2s): the all-ones vector then misses, or nearly misses,
    the top left singular space, and no limit is reported.
    """

    ratios: tuple[float, ...]
    max_ratios: tuple[float, ...]
    degenerate: bool
    limit: float | None
    s: int


def sigma_ratio_estimate(a: Matrix | Analysis, s: int = 1,
                         r_max: int = 60) -> RatioEstimate:
    """Estimate sigma^(2s) from ratios of odd-order walk totals.

    Defined for a real matrix or an ``Analysis`` of one, whose sigma it
    reads, on the basis of A / 2^e (``Analysis.basis``).  The only walk
    weights read are the odd row levels (A A^T)^t 1 for t = 0..r_max + s,
    walked as one chain that divides level t by 2^(e_t), the power of two
    nearest sigma^(2t).  The chain stays within sqrt(2m) in norm at every
    order, so no level overflows and the top one does not underflow, and
    while its entries stay normal every division is exact: each ratio,
    threshold and verdict is the one the undivided levels give.  Each
    result goes back to the input's units by one exact power of two,
    which raises WalkScaleError past float64.  The limit is reported only
    when the last two aggregate ratios agree to a relative 1e-9 and lie
    within 1e-6 relative of sigma^(2s); the entrywise maximum sequence is
    returned for inspection but never drives the limit.
    """
    from .analysis import Analysis  # analysis imports this module

    s, r_max = check_order(s, "s"), check_order(r_max, "r_max")
    ctx = Analysis.of(a)
    if not ctx.a.is_real():
        raise PreconditionError("ratio estimator is defined for real matrices")
    sigma = ctx.singular(ctx.basis).sigma
    sigma2 = sigma * sigma
    b = ctx.basis.data
    bt = b.T
    # levels[t] is (A A^T)^t 1 / 2^(e_t), e_t the integer nearest
    # t log2(sigma^2): denominators at t = 0..r_max, numerators s levels on.
    log2_sigma2 = math.log2(sigma2) if sigma2 else 0.0
    exps = np.rint(np.arange(r_max + s + 1) * log2_sigma2).astype(int)
    shifts = (exps[:-1] - exps[1:]).tolist()  # step t multiplies by 2^shifts[t - 1]
    levels = np.empty((r_max + s + 1, ctx.a.m))
    levels[0] = 1.0
    for t, shift in enumerate(shifts, 1):
        np.ldexp(b @ (bt @ levels[t - 1]), shift, out=levels[t])
    totals = levels.sum(axis=1)
    pows = np.cumprod(np.r_[1.0, np.ldexp(sigma2, shifts[:r_max])])  # sigma^(2t) / 2^(e_t)
    collapsed = np.flatnonzero(totals[:r_max + 1] <= 1e-12 * ctx.a.m * pows)
    stop = collapsed[0] if collapsed.size else r_max + 1
    # Quotient t is its walk ratio over 2^(e_(t+s) - e_t); each is moved
    # to the last one's divisor, 2^g.
    gaps = exps[s:s + stop] - exps[:stop]
    g = int(gaps[-1])
    ratios = np.ldexp(totals[s:s + stop] / totals[:stop], gaps - g).tolist()
    dens = levels[:stop]
    usable = dens > 1e-12 * pows[:stop, None]
    quotients = np.divide(levels[s:s + stop], dens, where=usable,
                          out=np.full(dens.shape, -np.inf))
    max_ratios = np.ldexp(quotients.max(axis=1), gaps - g)[usable.any(axis=1)].tolist()
    degenerate = bool(collapsed.size) and sigma > 0.0
    limit = 0.0 if sigma == 0.0 else None
    settled = len(ratios) >= 2 and abs(ratios[-1] - ratios[-2]) < 1e-9 * abs(ratios[-1])
    if sigma > 0.0 and settled and not degenerate:
        # sigma^(2s) / 2^g, from the pow of sigma while sigma^(2s) is a
        # normal float64 (sigma is at least 0.5 here); past that, from
        # log2(sigma), whose rounding is far below the 1e-6 tested.
        if 2 * s * max(math.frexp(sigma)[1], 1) <= 1022:
            target = math.ldexp(sigma ** (2 * s), -g)
        else:
            target = 2.0 ** (2 * s * math.log2(sigma) - g)
        if abs(ratios[-1] / target - 1.0) <= _LIMIT_RTOL:
            limit = ratios[-1]
        else:
            degenerate = True
    back = g + 2 * s * ctx.exponent
    return RatioEstimate(
        tuple(_unscaled(x, back) for x in ratios),
        tuple(_unscaled(x, back) for x in max_ratios),
        degenerate,
        None if limit is None else _unscaled(limit, back),
        s,
    )
