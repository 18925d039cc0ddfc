"""One lazily filled analysis context per matrix.

An ``Analysis`` holds a matrix with the tolerance and iteration cap of one
analysis.  It computes each shared quantity the first time it is asked
for and keeps it: the scalarity test and the basis the certificates run
on, one largest singular triple per distinct matrix, one walk table per
distinct matrix, the support mask and its decomposition, the
classification and the degree-product report.  Every layer function
takes a matrix or a context: ``full_analysis`` reads everything from one
context, and a single call on a bare matrix builds its own, so it
computes only what it needs.

The layer functions are called through their module-level names, so code
that rebinds them (a tracer, a test counting calls) sees every call.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    DenseMatrix,
    ScalarityResult,
    detect_scalar,
    entrywise_abs,
    max_modulus,
    support_mask,
)
from .spectral import SpectralResult, largest_singular
from .walks import WalkTable, walk_table


class Analysis:
    """Quantities derived from one matrix, each computed once on first use.

    Per-matrix results are keyed by identity: the input, the basis and
    the component submatrices are distinct matrices even when their
    entries agree.  ``max_iter`` caps every solve.
    """

    def __init__(self, a: DenseMatrix, tol: float = DEFAULT_TOL,
                 max_iter: int = 10_000):
        self.a = a
        self.tol = tol
        self.max_iter = max_iter
        # id(matrix) -> (matrix, result); holding the matrix keeps the id
        # from being reused while the context lives.
        self._solves: dict[int, tuple[DenseMatrix, SpectralResult]] = {}
        self._tables: dict[int, tuple[DenseMatrix, WalkTable]] = {}

    @classmethod
    def of(cls, a: DenseMatrix | Analysis, tol: float = DEFAULT_TOL,
           max_iter: int = 10_000) -> Analysis:
        """``a`` itself when it is a context, else a new context for the
        matrix ``a``; ``tol`` and ``max_iter`` apply only to a matrix."""
        return a if isinstance(a, cls) else cls(a, tol, max_iter)

    @cached_property
    def max_modulus(self) -> float:
        return max_modulus(self.a)

    @cached_property
    def scalarity(self) -> ScalarityResult:
        return detect_scalar(self.a, self.tol)

    @property
    def basis(self) -> DenseMatrix:
        """The nonnegative part of a scalar input, the input otherwise."""
        sc = self.scalarity
        return sc.nonneg_part if sc.is_scalar else self.a

    @cached_property
    def modulus(self) -> DenseMatrix:
        """The entrywise modulus |a_ij|, which the weighted bounds tabulate.

        A nonnegative input is its own modulus, so its walk table serves
        both the basis and the modulus."""
        return self.a if self.a.is_nonneg() else entrywise_abs(self.a)

    def singular(self, matrix: DenseMatrix) -> SpectralResult:
        """The largest singular triple of ``matrix``."""
        hit = self._solves.get(id(matrix))
        if hit is None:
            result = largest_singular(matrix, max_iter=self.max_iter)
            hit = self._solves[id(matrix)] = (matrix, result)
        return hit[1]

    def table(self, matrix: DenseMatrix, order: int) -> WalkTable:
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
    def support(self) -> np.ndarray:
        """The input's support mask."""
        return support_mask(self.a)

    @cached_property
    def decomposition(self):
        """The ComponentDecomposition of the input's support."""
        from .structure import decompose  # structure imports this module

        return decompose(self)

    def submatrices(self, matrix: DenseMatrix) -> list[DenseMatrix]:
        """``matrix`` (the input or the basis) on each support component.

        The decomposition gives a component that covers the whole input
        the input itself as its submatrix; ``matrix`` then stands for
        itself, so its sigma is the one already solved for ``matrix``.
        Other submatrices of a matrix other than the input are built
        anew on each call.
        """
        if matrix is self.a:
            return [comp.submatrix for comp in self.decomposition.components]
        subs = []
        for comp in self.decomposition.components:
            if comp.submatrix is self.a:
                subs.append(matrix)
            else:
                rows_cols = np.ix_(comp.row_indices, comp.col_indices)
                subs.append(DenseMatrix(matrix.data[rows_cols]))
        return subs

    @cached_property
    def classification(self):
        """The ClassificationReport; raises PreconditionError where undefined."""
        from .classify import classify  # classify imports this module

        return classify(self)

    @cached_property
    def hwh_report(self):
        """The degree-product BoundReport; raises PreconditionError where
        the bound does not apply."""
        from .bounds import hwh_bound  # bounds imports this module

        return hwh_bound(self)
