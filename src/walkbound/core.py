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
    def values(self) -> np.ndarray:
        """Every entry: the same array as ``data``."""
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

    @classmethod
    def _from_array(cls, data: np.ndarray) -> DenseMatrix:
        """Adopts ``data``, a finite C-ordered float64 or complex128 array
        that no one else writes."""
        data.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "_data", data)
        return out

    def times_pow2(self, exponent: int) -> DenseMatrix:
        """This matrix times 2^exponent, exact while the entries stay normal."""
        with np.errstate(over="raise"):
            data = np.ldexp(self._data.view(np.float64), exponent).view(self._data.dtype)
        return DenseMatrix._from_array(data)

    def with_values(self, values: np.ndarray) -> DenseMatrix:
        """A DenseMatrix of ``values``, an m x n array of entries."""
        return DenseMatrix(values)

    def pair_products(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x[i] * y[j] at every entry (i, j): the m x n outer product."""
        return np.outer(x, y)

    def to_dense(self) -> DenseMatrix:
        """This matrix: it is dense already."""
        return self

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return np.array_equal(self._data, other._data)

    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    def __repr__(self):
        return f"DenseMatrix({self.m}x{self.n})"


class SparseMatrix:
    """Immutable m x n matrix stored in CSR form, float64 or complex128.

    Built from any scipy sparse matrix or array: duplicates are summed,
    explicit zeros dropped and column indices sorted, so the stored
    entries ``values`` run in row-major order, row i's at positions
    ``indptr[i]`` to ``indptr[i + 1]`` with column indices ``indices``.
    The dtype rule is DenseMatrix's, and the arrays are read-only.
    ``data`` is the same matrix as a scipy ``csr_array``, built on first
    use; ``to_dense`` is the one way to the m x n array.
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
        values = csr.data
        if values.dtype.kind == "c" and not values.imag.any():
            values = values.real
        values = np.array(values, dtype=np.complex128 if values.dtype.kind == "c" else np.float64)
        if not np.isfinite(values).all():
            raise NonFiniteEntryError("matrix entries must be finite")
        self._adopt(values, csr.indices, csr.indptr, csr.shape)

    def _adopt(self, values, indices, indptr, shape) -> None:
        for name, value in (("values", values), ("indices", indices),
                            ("indptr", indptr)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "shape", (int(shape[0]), int(shape[1])))
        object.__setattr__(self, "_csr", None)

    @classmethod
    def _from_arrays(cls, values, indices, indptr, shape) -> SparseMatrix:
        """Adopts finite ``values`` of a float64 or complex128 dtype, with
        sorted column indices; the arrays must be no one else's to write."""
        out = object.__new__(cls)
        out._adopt(values, indices, indptr, shape)
        return out

    @property
    def data(self):
        if self._csr is None:
            import scipy.sparse

            csr = scipy.sparse.csr_array((self.values, self.indices, self.indptr),
                                         shape=self.shape)
            object.__setattr__(self, "_csr", csr)
        return self._csr

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]

    def row_of_entries(self) -> np.ndarray:
        """The row index of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def is_real(self) -> bool:
        """True when the entries are stored as float64."""
        return self.values.dtype == np.float64

    def is_nonneg(self) -> bool:
        """True when the matrix is real with no negative entry."""
        return self.is_real() and self.values.min(initial=0.0) >= 0.0

    def times_pow2(self, exponent: int) -> SparseMatrix:
        """This matrix times 2^exponent, exact while the entries stay normal."""
        values = self.values
        with np.errstate(over="raise"):
            values = np.ldexp(values.view(np.float64), exponent).view(values.dtype)
        return self.with_values(values)

    def with_values(self, values: np.ndarray) -> SparseMatrix:
        """The matrix with this one's pattern and stored entries ``values``,
        a fresh float64 or complex128 array; a zero stays stored."""
        return SparseMatrix._from_arrays(values, self.indices, self.indptr, self.shape)

    def pair_products(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x[i] * y[j] at each stored entry (i, j), in the order of ``values``."""
        return x[self.row_of_entries()] * y[self.indices]

    def to_dense(self) -> DenseMatrix:
        """The same matrix with every entry stored: m x n memory."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.row_of_entries(), self.indices] = self.values
        return DenseMatrix(dense)

    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    def __repr__(self):
        return f"SparseMatrix({self.m}x{self.n}, {self.values.size} stored)"


Matrix = DenseMatrix | SparseMatrix


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
                    cols: np.ndarray, col_ptr: np.ndarray) -> tuple[Matrix, list[Matrix]]:
    """``a`` cut into blocks: block k is rows ``rows[row_ptr[k]:row_ptr[k+1]]``
    by columns ``cols[col_ptr[k]:col_ptr[k+1]]``, in those orders.

    Returns ``inside``, the len(rows) x len(cols) matrix that holds the
    blocks along its diagonal (the rows ``rows`` and columns ``cols`` of
    ``a`` with every entry outside a block dropped, or zero for a
    DenseMatrix), and the list of blocks.  A SparseMatrix is cut in one
    pass over the stored entries of ``rows``, and each block is a slice
    of ``inside``'s arrays.
    """
    bounds = list(zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist(),
                      col_ptr[:-1].tolist(), col_ptr[1:].tolist()))
    if isinstance(a, DenseMatrix):
        inside = np.zeros((rows.size, cols.size), dtype=a.data.dtype)
        blocks = []
        for r0, r1, c0, c1 in bounds:
            blocks.append(DenseMatrix(a.data[np.ix_(rows[r0:r1], cols[c0:c1])]))
            inside[r0:r1, c0:c1] = blocks[-1].data
        return DenseMatrix._from_array(inside), blocks
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
    new_cols = new_cols[keep]
    local = new_cols - col_ptr[entry_block[keep]]  # place within the block
    indptr = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(np.repeat(np.arange(rows.size), counts)[keep], minlength=rows.size),
              out=indptr[1:])
    inside = SparseMatrix._from_arrays(values, new_cols, indptr, (rows.size, cols.size))
    blocks = []
    for r0, r1, c0, c1 in bounds:
        e0, e1 = int(indptr[r0]), int(indptr[r1])
        blocks.append(SparseMatrix._from_arrays(values[e0:e1], local[e0:e1],
                                                indptr[r0:r1 + 1] - e0, (r1 - r0, c1 - c0)))
    return inside, blocks


def entrywise_abs(a: Matrix) -> Matrix:
    """The matrix of entry moduli |a_ij|."""
    return a.with_values(np.abs(a.values))


def total_sum(a: Matrix) -> complex:
    """Sum of all entries."""
    return complex(a.values.sum())


def _binned_sums(a: SparseMatrix, bins: np.ndarray, size: int) -> np.ndarray:
    """Sums of the stored entries that share a bin, in the matrix's dtype."""
    values = a.values
    sums = np.bincount(bins, values.real, size)
    return sums if a.is_real() else sums + 1j * np.bincount(bins, values.imag, size)


def row_sums(a: Matrix) -> np.ndarray:
    """Length-m vector of row sums, in the matrix's dtype."""
    if isinstance(a, DenseMatrix):
        return a.data.sum(axis=1)
    return _binned_sums(a, a.row_of_entries(), a.m)


def col_sums(a: Matrix) -> np.ndarray:
    """Length-n vector of column sums, in the matrix's dtype."""
    if isinstance(a, DenseMatrix):
        return a.data.sum(axis=0)
    return _binned_sums(a, a.indices, a.n)


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
    gives a phase of exactly +1 or -1, and a nonnegative input is its own
    nonnegative part.
    """
    if a.is_nonneg():
        return ScalarityResult(True, 1.0 + 0.0j, a)
    data = a.values
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
    return ScalarityResult(True, complex(phase), a.with_values(nonneg))
