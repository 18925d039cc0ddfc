"""One lazily filled analysis context per matrix.

An ``Analysis`` holds a matrix with the tolerance and iteration cap of one
analysis.  ``ctx.a`` is the input over the power of two 2^e that brings
its largest real or imaginary part into [0.5, 1); ``ctx.singular(...)``,
``ctx.table(...)`` and every test are in those units, so A and 2^k A
present the same bits to every test, and ``ctx.unscaled`` takes numbers
back to the input's units.  Every whole-matrix number is computed on
``ctx.basis``, the nonnegative part of a scalar input (a unit phase
times it) and the input otherwise: a scalar input's numbers are its
nonnegative part's, within the phase test's tolerance of the input's.
Domain checks read the input.  Each shared quantity is computed once,
on first use: the scalarity test and the basis, one singular triple and
one walk table per distinct matrix, the support, and the basis's row
sums, column sums and total.
A quantity that the context does not hold is a ``reading``: a function
of the context alone, defined where it is computed, that the context
keeps once it has run (the components and their cuts in ``structure``,
the three class readings in ``classify``, the degree-product report in
``bounds``).
Every layer function takes a matrix or a context and hands its settings
to ``Analysis.of``: a call on a matrix builds its own context from them,
and a call on a context, the one holder of an analysis's settings,
refuses them.  A context reads a setting left at None as its default.
``full_analysis`` reads everything from one context.
The context keeps the input's storage: a ``SparseMatrix`` input has a
sparse ``a``, nonnegative part, modulus and component submatrices.

The layer functions are called through their module-level names, so code
that rebinds them (a tracer, a test counting calls) sees every call.
"""

from __future__ import annotations

from functools import cached_property, wraps

from .core import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Matrix,
    ScalarityResult,
    check_order,
    check_tol,
    col_sums,
    detect_scalar,
    entrywise_abs,
    max_modulus,
    row_sums,
    support_mask,
    total_sum,
)
from .errors import PreconditionError
from .spectral import SpectralResult, _scaled, _unscaled, largest_singular
from .walks import WalkTable, walk_table


class Analysis:
    """Quantities derived from one matrix, each computed once on first use.

    ``a`` is ``input`` over 2^``exponent`` (``input`` itself at 0).
    Per-matrix results are keyed by identity: the input, the basis and
    the component submatrices are distinct matrices even when their
    entries agree.  ``max_iter`` caps every solve; a failed solve's
    ConvergenceError carries its best triple and message in ``a``'s units.
    """

    def __init__(self, a: Matrix, tol: float | None = None,
                 max_iter: int | None = None):
        self.tol = check_tol(DEFAULT_TOL if tol is None else tol)
        self.max_iter = check_order(DEFAULT_MAX_ITER if max_iter is None else max_iter,
                                    "max_iter")
        self.input = a
        self.a, self.exponent = _scaled(a)
        # id(matrix) -> (matrix, result); holding the matrix keeps the id
        # from being reused while the context lives.
        self._solves: dict[int, tuple[Matrix, SpectralResult]] = {}
        self._tables: dict[int, tuple[Matrix, WalkTable]] = {}
        self._readings: dict = {}  # reading function -> its value

    @classmethod
    def of(cls, a: Matrix | Analysis, tol: float | None = None,
           max_iter: int | None = None) -> Analysis:
        """``a`` itself when it is a context, which refuses settings given
        here; else a context for the matrix ``a``."""
        if not isinstance(a, cls):
            return cls(a, tol, max_iter)
        if tol is not None or max_iter is not None:
            name = "tol" if tol is not None else "max_iter"
            raise PreconditionError(f"{name} cannot be given with an Analysis, "
                                    f"which holds its own {name}")
        return a

    def unscaled(self, x: float, degree: int = 1) -> float:
        """x * 2^(degree * exponent); WalkScaleError past float64."""
        return _unscaled(x, degree * self.exponent)

    @cached_property
    def max_modulus(self) -> float:
        return max_modulus(self.a)

    @cached_property
    def scalarity(self) -> ScalarityResult:
        return detect_scalar(self.a, self.tol)

    @property
    def basis(self) -> Matrix:
        """The nonnegative part of a scalar input, the input otherwise."""
        return self.scalarity.nonneg_part or self.a  # None when not scalar

    @cached_property
    def modulus(self) -> Matrix:
        """The matrix the weighted bounds tabulate: a scalar input's basis,
        whose table the walk bounds read too, else the moduli |a_ij|."""
        return self.basis if self.scalarity.is_scalar else entrywise_abs(self.a)

    def singular(self, matrix: Matrix) -> SpectralResult:
        """The largest singular triple of ``matrix``."""
        hit = self._solves.get(id(matrix))
        if hit is None:
            hit = self._solves[id(matrix)] = (
                matrix, largest_singular(matrix, max_iter=self.max_iter))
        return hit[1]

    def table(self, matrix: Matrix, order: int) -> WalkTable:
        """Walk weights of ``matrix`` up to at least ``order``.

        A table is recomputed only when a higher order is asked for.  Its
        leading levels are the same bits as a lower-order table's, so
        asking for the highest order first makes one table serve all.
        """
        hit = self._tables.get(id(matrix))
        if hit is None or hit[1].order < order:
            hit = self._tables[id(matrix)] = (matrix, walk_table(matrix, order))
        return hit[1]

    @cached_property
    def support(self):
        """The input's support: ``support_mask`` of ``a``, one flag per
        stored entry."""
        return support_mask(self.a)

    @cached_property
    def sums(self) -> tuple:
        """The basis's row sums and column sums (real parts), which
        regularity, Schur's bound and the degree-product bound read."""
        return row_sums(self.basis).real, col_sums(self.basis).real

    @cached_property
    def total(self) -> complex:
        """The basis's total, which T4, the mean and degree-product bounds read."""
        return total_sum(self.basis)


def reading(fn):
    """Make ``fn(ctx)`` a reading: a quantity of the context alone, which
    runs once per context and is kept; an error it raises is not kept."""
    @wraps(fn)
    def read(ctx: Analysis):
        kept = ctx._readings
        if fn not in kept:
            kept[fn] = fn(ctx)
        return kept[fn]

    return read
