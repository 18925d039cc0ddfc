"""Dense real or complex matrices and the elementary quantities built on them.

Matrices are immutable; every operation returns a fresh value.  Row and
column indices live in separate namespaces: a row index is never compared
with a column index, and functions that take both always take the row
index first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteEntryError

# Entries at or below ZERO_TOL_FACTOR times the largest modulus are treated
# as structural zeros wherever support matters.
ZERO_TOL_FACTOR = 1e-12

DEFAULT_TOL = 1e-8


class DenseMatrix:
    """Immutable m x n matrix with float64 or complex128 entries.

    Accepts anything ``np.array`` does (nested lists, ndarrays, another
    DenseMatrix's data).  A real input, including a complex one whose
    imaginary parts are all zero, is stored as float64; any other as
    complex128.  Entries must be finite; the stored array is marked
    read-only.
    """

    __slots__ = ("_data",)

    def __init__(self, entries):
        data = np.asarray(entries)
        if data.dtype.kind not in "biuf":  # complex, or entries numpy must parse
            data = data.astype(np.complex128, copy=False)
            if not data.imag.any():
                data = data.real
        dtype = np.complex128 if data.dtype.kind == "c" else np.float64
        data = np.array(data, dtype=dtype, order="C")
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise DimensionMismatchError(
                f"expected a 2-D matrix with positive extents, got shape {data.shape}"
            )
        if not np.isfinite(data).all():
            raise NonFiniteEntryError("matrix entries must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "_data", data)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def m(self) -> int:
        return self._data.shape[0]

    @property
    def n(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def is_real(self) -> bool:
        """True when every entry has exactly zero imaginary part, which is
        when the entries are stored as float64."""
        return self._data.dtype == np.float64

    def is_nonneg(self) -> bool:
        """True when the matrix is real with no negative entry."""
        return self.is_real() and self._data.min() >= 0.0

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return np.array_equal(self._data, other._data)

    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    def __repr__(self):
        return f"DenseMatrix({self.m}x{self.n})"


def max_modulus(a: DenseMatrix) -> float:
    return float(np.abs(a.data).max())


def support_mask(a: DenseMatrix) -> np.ndarray:
    """Boolean m x n array marking entries above ZERO_TOL_FACTOR times
    the largest modulus."""
    mods = np.abs(a.data)
    return mods > ZERO_TOL_FACTOR * mods.max()


def entrywise_abs(a: DenseMatrix) -> DenseMatrix:
    """The matrix of entry moduli |a_ij|."""
    return DenseMatrix(np.abs(a.data))


def conj_transpose(a: DenseMatrix) -> DenseMatrix:
    """The conjugate transpose; an involution that swaps the shape."""
    return DenseMatrix(a.data.conj().T)


def matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.n != b.m:
        raise DimensionMismatchError(
            f"cannot multiply {a.m}x{a.n} by {b.m}x{b.n}: inner extents differ"
        )
    return DenseMatrix(a.data @ b.data)


def total_sum(a: DenseMatrix) -> complex:
    """Sum of all entries."""
    return complex(a.data.sum())


def row_sums(a: DenseMatrix) -> np.ndarray:
    """Length-m vector of row sums, in the matrix's dtype."""
    return a.data.sum(axis=1)


def col_sums(a: DenseMatrix) -> np.ndarray:
    """Length-n vector of column sums, in the matrix's dtype."""
    return a.data.sum(axis=0)


@dataclass(frozen=True)
class ScalarityResult:
    """Outcome of the common-phase test.

    is_scalar
        True when every nonzero entry shares one complex argument, i.e.
        the matrix is a unit-modulus multiple of a nonnegative matrix.
    phase
        The shared unit-modulus factor (1 for an all-zero matrix), or
        None when the matrix is not scalar.
    nonneg_part
        The nonnegative matrix N with ``phase * N`` reproducing the input
        within tolerance, or None when not scalar.
    """

    is_scalar: bool
    phase: complex | None
    nonneg_part: DenseMatrix | None


def detect_scalar(a: DenseMatrix, tol: float = DEFAULT_TOL) -> ScalarityResult:
    """Test whether all nonzero entries share a single complex argument.

    The phase is read off the first nonzero entry in row-major order, so
    the result is deterministic.  An entry passes when, after rotating by
    the conjugate phase, its imaginary part is at most ``tol`` times its
    modulus and its real part is not materially negative.  A real pivot
    gives a phase of exactly +1 or -1, and a nonnegative input is its own
    nonnegative part.
    """
    if a.is_nonneg():
        return ScalarityResult(True, 1.0 + 0.0j, a)
    data = a.data
    mods = np.abs(data)
    cutoff = ZERO_TOL_FACTOR * float(mods.max())
    nz = mods > cutoff
    first_flat = int(np.argmax(nz.ravel()))
    pivot = data.ravel()[first_flat]
    # pivot / abs(pivot) rounds to +-0.9999999999999999 for some real
    # pivots, which would perturb every entry of the nonnegative part.
    # A real phase keeps a real input real.
    phase = np.sign(pivot.real) if pivot.imag == 0.0 else pivot / abs(pivot)
    rotated = data * np.conj(phase)
    bad = nz & (
        (np.abs(rotated.imag) > tol * mods) | (rotated.real < -tol * mods)
    )
    if bad.any():
        return ScalarityResult(False, None, None)
    nonneg = np.where(rotated.real > 0.0, rotated.real, 0.0)
    return ScalarityResult(True, complex(phase), DenseMatrix(nonneg))
