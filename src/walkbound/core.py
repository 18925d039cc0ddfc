"""Real or complex matrices, dense or sparse, and the elementary quantities
built on them.

A ``DenseMatrix`` stores every entry in an ndarray; a ``SparseMatrix``
stores the nonzero entries of a coordinate file in CSR form and never
forms the m x n array unless ``to_dense`` is called.  Both expose
``data``, which ``@`` and ``.T`` work on (the ndarray or the
``csr_array``), ``values``, the stored entries that elementwise tests
read (every entry of a dense matrix, the stored ones of a sparse
matrix), and ``pair_products(x, y)``, x_i * y_j at every stored entry,
shaped like ``values``.  The support is one flag per stored entry, a
boolean array over ``values`` from ``support_mask``, so a caller selects
entries with it without knowing the storage.  Every function here takes
either storage, and outside this module only the search of
``structure.decompose`` chooses between them; a dense input keeps the
arithmetic, and so the bits, of a dense-only implementation.

Matrices are immutable; every operation returns a fresh value.  The two
constructors are the one check of outside input (extents, dtype,
finiteness); a matrix derived from a checked one adopts its arrays
unchecked.  ``check_tol`` and ``check_order`` are the one check of a
tolerance and of a walk order or iteration cap, run on entry under the
argument's name.  Row and column indices live in separate namespaces: a
row index is never compared with a column index, and functions that
take both always take the row index first.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteEntryError, PreconditionError

# Entries at or below ZERO_TOL_FACTOR times the largest modulus are treated
# as structural zeros wherever support matters.
ZERO_TOL_FACTOR = 1e-12

DEFAULT_TOL = 1e-8
# Cap on the Lanczos steps of one largest-singular-value solve.
DEFAULT_MAX_ITER = 10_000


def _entries(array: np.ndarray) -> np.ndarray:
    """A fresh C-ordered copy of ``array`` in the storage dtype: float64
    when no entry has a nonzero imaginary part (so integers, booleans and
    ``1+0j`` are real), complex128 otherwise.  Entries must be finite."""
    if array.dtype.kind not in "biuf":  # complex, or entries numpy must parse
        array = array.astype(np.complex128, copy=False)
        if not array.imag.any():
            array = array.real
    dtype = np.complex128 if array.dtype.kind == "c" else np.float64
    array = np.array(array, dtype=dtype, order="C")
    if not np.isfinite(array).all():
        raise NonFiniteEntryError("matrix entries must be finite")
    return array


class _Storage:
    """What both storages share: ``values``, the stored entries, and
    ``shape``.  A matrix is immutable and its arrays are read-only."""

    __slots__ = ()

    def _hold(self, **fields):
        """Sets ``fields`` on this matrix, each array made read-only, and
        returns it."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _adopt(cls, **fields):
        """A new matrix holding ``fields`` unchecked: arrays derived from
        a validated matrix, which no one else writes."""
        return object.__new__(cls)._hold(**fields)

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]

    def is_real(self) -> bool:
        """True when every entry has exactly zero imaginary part, which is
        when the entries are stored as float64."""
        return self.values.dtype == np.float64

    def is_nonneg(self) -> bool:
        """True when the matrix is real with no negative entry."""
        return self.is_real() and self.values.min(initial=0.0) >= 0.0

    def times_pow2(self, exponent: int):
        """This matrix times 2^exponent, exact while the entries stay normal."""
        values = self.values
        with np.errstate(over="raise"):
            values = np.ldexp(values.view(np.float64), exponent).view(values.dtype)
        return self.with_values(values)

    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class DenseMatrix(_Storage):
    """Immutable m x n matrix with float64 or complex128 entries.

    Accepts anything ``np.array`` does (nested lists, ndarrays, another
    DenseMatrix's data) and stores a copy by the rule of ``_entries``.
    """

    __slots__ = ("values",)

    def __init__(self, entries):
        data = np.asarray(entries)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise DimensionMismatchError(
                f"expected a 2-D matrix with positive extents, got shape {data.shape}"
            )
        self._hold(values=_entries(data))

    @property
    def data(self) -> np.ndarray:
        """Every entry: the same array as ``values``."""
        return self.values

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def with_values(self, values: np.ndarray) -> DenseMatrix:
        """The DenseMatrix of ``values``, a fresh m x n C-ordered array of
        finite float64 or complex128 entries."""
        return DenseMatrix._adopt(values=values)

    def pair_products(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x[i] * y[j] at every entry (i, j): the m x n outer product."""
        return np.outer(x, y)

    def to_dense(self) -> DenseMatrix:
        """This matrix: it is dense already."""
        return self

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"DenseMatrix({self.m}x{self.n})"


class SparseMatrix(_Storage):
    """Immutable m x n matrix stored in CSR form, float64 or complex128.

    Built from any scipy sparse matrix or array: duplicates are summed,
    explicit zeros dropped and column indices sorted, so the stored
    entries ``values`` run in row-major order, row i's at positions
    ``indptr[i]`` to ``indptr[i + 1]`` with column indices ``indices``.
    ``values`` follow the rule of ``_entries``.  ``data`` is the same
    matrix as a scipy ``csr_array``, built on first use; ``to_dense`` is
    the one way to the m x n array.
    """

    __slots__ = ("values", "indices", "indptr", "shape", "_csr")

    def __init__(self, entries):
        import scipy.sparse  # deferred: ``import walkbound`` loads no scipy

        csr = scipy.sparse.csr_array(entries, copy=True)
        if csr.shape[0] < 1 or csr.shape[1] < 1:
            raise DimensionMismatchError(
                f"expected a 2-D matrix with positive extents, got shape {csr.shape}"
            )
        csr.sum_duplicates()
        csr.eliminate_zeros()
        self._hold(values=_entries(csr.data), indices=csr.indices, indptr=csr.indptr,
                   shape=csr.shape)

    @property
    def data(self):
        csr = getattr(self, "_csr", None)
        if csr is None:
            import scipy.sparse

            csr = scipy.sparse.csr_array((self.values, self.indices, self.indptr),
                                         shape=self.shape)
            object.__setattr__(self, "_csr", csr)
        return csr

    def row_of_entries(self) -> np.ndarray:
        """The row index of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def with_values(self, values: np.ndarray) -> SparseMatrix:
        """The matrix with this one's pattern and stored entries ``values``,
        a fresh array of finite float64 or complex128 entries; a zero stays
        stored."""
        return SparseMatrix._adopt(values=values, indices=self.indices,
                                   indptr=self.indptr, shape=self.shape)

    def pair_products(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x[i] * y[j] at each stored entry (i, j), in the order of ``values``."""
        return x[self.row_of_entries()] * y[self.indices]

    def to_dense(self) -> DenseMatrix:
        """The same matrix with every entry stored: m x n memory."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.row_of_entries(), self.indices] = self.values
        return DenseMatrix._adopt(values=dense)

    def __repr__(self):
        return f"SparseMatrix({self.m}x{self.n}, {self.values.size} stored)"


Matrix = DenseMatrix | SparseMatrix


def relative_gap(diff: float, *scales: float) -> float:
    """``diff`` relative to the largest of ``scales``, floored at 1: the
    one tolerance rule, under which a quantity "equals" its target when
    this gap is at most ``tol``."""
    return diff / max(1.0, *scales)


def check_tol(tol: float) -> float:
    """``tol`` if it is a real number, finite and at least 0 (0 tests
    exactly), else PreconditionError."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise PreconditionError(f"tol must be a real number, got {tol!r}")
    if not 0.0 <= tol < np.inf:  # also false for nan
        raise PreconditionError(f"tol must be finite and nonnegative, got {tol!r}")
    return tol


def _is_int(value) -> bool:
    """A Python or numpy int, not a bool: the one integer rule."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_order(value, name: str, low: int = 1) -> int:
    """``value`` as a Python int; PreconditionError naming ``name`` unless
    it is an integer (``_is_int``) of at least ``low``."""
    if type(value) is not int:  # the common case takes one type test
        if not _is_int(value):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise PreconditionError(f"{name} must be at least {low}, got {value}")
    return value


def max_modulus(a: Matrix) -> float:
    return float(np.abs(a.values).max(initial=0.0))


def support_mask(a: Matrix) -> np.ndarray:
    """Boolean array over ``a.values`` marking the entries above
    ZERO_TOL_FACTOR times the largest modulus: an m x n mask for a
    DenseMatrix, one flag per stored entry for a SparseMatrix."""
    mods = np.abs(a.values)
    return mods > ZERO_TOL_FACTOR * mods.max(initial=0.0)


def segment_positions(ptr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Positions ptr[i] .. ptr[i+1]-1 for each i in ``idx``, concatenated:
    where the entries of rows ``idx`` sit in a CSR matrix's arrays."""
    starts = ptr[idx]
    counts = ptr[idx + 1] - starts
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def diagonal_blocks(a: Matrix, rows: np.ndarray, row_ptr: np.ndarray,
                    cols: np.ndarray, col_ptr: np.ndarray) -> list[Matrix]:
    """``a`` cut into blocks: block k is rows ``rows[row_ptr[k]:row_ptr[k+1]]``
    by columns ``cols[col_ptr[k]:col_ptr[k+1]]``, in those orders.

    A SparseMatrix is cut in one pass over the stored entries of ``rows``,
    dropping any entry outside a block, and each block is a slice of one
    permuted set of CSR arrays.
    """
    bounds = list(zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist(),
                      col_ptr[:-1].tolist(), col_ptr[1:].tolist()))
    if isinstance(a, DenseMatrix):
        return [DenseMatrix._adopt(values=a.data[np.ix_(rows[r0:r1], cols[c0:c1])])
                for r0, r1, c0, c1 in bounds]
    count = row_ptr.size - 1
    row_block = np.repeat(np.arange(count), np.diff(row_ptr))
    col_block = np.repeat(np.arange(count), np.diff(col_ptr))
    place = np.full(a.n, -1)  # column index -> its place in ``cols``
    place[cols] = np.arange(cols.size)
    counts = np.diff(a.indptr)[rows]
    pos = segment_positions(a.indptr, rows)
    new_cols = place[a.indices[pos]]
    entry_block = np.repeat(row_block, counts)
    # A stored entry below the zero cutoff may reach another block's column.
    keep = (new_cols >= 0) & (col_block[new_cols] == entry_block)
    values = a.values[pos[keep]]
    local = new_cols[keep] - col_ptr[entry_block[keep]]  # place within the block
    indptr = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(np.repeat(np.arange(rows.size), counts)[keep], minlength=rows.size),
              out=indptr[1:])
    blocks = []
    for r0, r1, c0, c1 in bounds:
        e0, e1 = int(indptr[r0]), int(indptr[r1])
        blocks.append(SparseMatrix._adopt(values=values[e0:e1], indices=local[e0:e1],
                                          indptr=indptr[r0:r1 + 1] - e0,
                                          shape=(r1 - r0, c1 - c0)))
    return blocks


def entrywise_abs(a: Matrix) -> Matrix:
    """The matrix of entry moduli |a_ij|."""
    return a.with_values(np.abs(a.values))


def total_sum(a: Matrix) -> complex:
    """Sum of all entries."""
    return complex(a.values.sum())


def row_sums(a: Matrix) -> np.ndarray:
    """Length-m vector of row sums, in the matrix's dtype."""
    if isinstance(a, DenseMatrix):
        return a.data.sum(axis=1)
    return a.data @ np.ones(a.n)


def col_sums(a: Matrix) -> np.ndarray:
    """Length-n vector of column sums, in the matrix's dtype."""
    if isinstance(a, DenseMatrix):
        return a.data.sum(axis=0)
    return a.data.T @ np.ones(a.m)


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
    nonneg_part: Matrix | None


def detect_scalar(a: Matrix, tol: float = DEFAULT_TOL) -> ScalarityResult:
    """Test whether all nonzero entries share a single complex argument.

    The phase is read off the first nonzero entry in row-major order, so
    the result is deterministic.  An entry passes when, after rotating by
    the conjugate phase, its imaginary part is at most ``tol`` times its
    modulus and its real part is not materially negative.  A real pivot
    gives a phase of exactly +1 or -1, an imaginary one exactly +1j or
    -1j, and a nonnegative input is its own nonnegative part.
    """
    tol = check_tol(tol)
    if a.is_nonneg():
        return ScalarityResult(True, 1.0 + 0.0j, a)
    data = a.values
    mods = np.abs(data)
    cutoff = ZERO_TOL_FACTOR * float(mods.max())
    nz = mods > cutoff
    first_flat = int(np.argmax(nz.ravel()))
    pivot = data.ravel()[first_flat]
    # On an axis, pivot / abs(pivot) can round off it: take the axis.
    if pivot.imag == 0.0:
        phase = np.sign(pivot.real)  # a real phase keeps a real input real
    else:
        phase = complex(0.0, np.sign(pivot.imag)) if pivot.real == 0.0 else pivot / abs(pivot)
    rotated = data * np.conj(phase)
    bad = nz & (
        (np.abs(rotated.imag) > tol * mods) | (rotated.real < -tol * mods)
    )
    if bad.any():
        return ScalarityResult(False, None, None)
    nonneg = np.where(rotated.real > 0.0, rotated.real, 0.0)
    return ScalarityResult(True, complex(phase), a.with_values(nonneg))
