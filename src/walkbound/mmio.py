"""Reading and writing matrices on disk.

Two formats: Matrix Market (.mtx or .mm; array and coordinate layouts,
real, integer, complex or pattern fields, symmetric storage expanded on
read) and CSV (.csv) with complex literals written as a+bi.  One table,
``_FORMATS``, maps each suffix to its reader and its writer, and
``_format`` names a path's format ("mtx", "mm" or "csv", as a report's
``input.format`` shows it) or refuses its suffix.  A Matrix
Market file is read by scipy's parser, imported on first use.  The
storage follows the file's layout: a coordinate file becomes a
``SparseMatrix`` with no m x n array formed, an array file or a CSV file
a ``DenseMatrix``.  Writing is done here so the byte layout stays fixed:
array layout, column major, one value per line, shortest lossless float
representation.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .core import DenseMatrix, Matrix, SparseMatrix
from .errors import InputFormatError


def _parse_complex(token: str, where: str) -> complex:
    text = token.strip().replace(" ", "")
    if not text:
        raise InputFormatError(f"empty cell at {where}")
    try:
        return complex(text.replace("i", "j").replace("I", "j"))
    except ValueError as exc:
        raise InputFormatError(f"cannot parse {token!r} at {where}") from exc


def _read_csv(path: Path) -> DenseMatrix:
    rows = []
    with open(path, newline="") as handle:
        for lineno, record in enumerate(csv.reader(handle), start=1):
            if not record:
                continue
            rows.append([
                _parse_complex(cell, f"{path.name}:{lineno}") for cell in record
            ])
    if not rows:
        raise InputFormatError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputFormatError(f"{path}: rows have inconsistent lengths")
    return DenseMatrix(rows)


def _read_matrix_market(path: Path) -> Matrix:
    import scipy.io  # deferred: a CSV read and ``import walkbound`` load no scipy
    import scipy.sparse

    try:
        loaded = scipy.io.mmread(str(path))
    except Exception as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
    # A real, integer or pattern field stays real: both types store it as
    # float64.
    if scipy.sparse.issparse(loaded):
        return SparseMatrix(loaded)
    return DenseMatrix(loaded)


def _fmt_complex_csv(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _write_matrix_market(path: Path, a: DenseMatrix) -> None:
    real = a.is_real()
    entries = a.data.T.ravel().tolist()  # column major, as Python floats or complexes
    body = map(repr, entries) if real else (f"{z.real!r} {z.imag!r}" for z in entries)
    head = f"%%MatrixMarket matrix array {'real' if real else 'complex'} general\n{a.m} {a.n}\n"
    path.write_text(head + "\n".join(body) + "\n")


def _write_csv(path: Path, a: DenseMatrix) -> None:
    fmt = repr if a.is_real() else _fmt_complex_csv
    rows = a.data.tolist()  # as Python floats or complexes
    path.write_text("".join(",".join(map(fmt, row)) + "\n" for row in rows), newline="")


# Each supported suffix, lowercase and without its dot, with its reader
# and its writer.
_FORMATS = {
    "mtx": (_read_matrix_market, _write_matrix_market),
    "mm": (_read_matrix_market, _write_matrix_market),
    "csv": (_read_csv, _write_csv),
}


def _format(path) -> str:
    """The format of ``path`` by its suffix: "mtx", "mm" or "csv"."""
    suffix = Path(path).suffix.lower()
    if suffix[1:] not in _FORMATS:
        raise InputFormatError(
            f"unsupported extension {suffix!r}; expected .mtx, .mm, or .csv"
        )
    return suffix[1:]


def read_matrix(path) -> Matrix:
    """Load a matrix, picking the format from the file extension.

    A coordinate Matrix Market file gives a SparseMatrix; an array file
    or a CSV file gives a DenseMatrix.
    """
    p = Path(path)
    if not p.exists():
        raise InputFormatError(f"no such file: {p}")
    read, _ = _FORMATS[_format(p)]
    return read(p)


def write_matrix(path, a: Matrix) -> None:
    """Write a matrix; same matrix and path suffix give identical bytes.

    Both formats list every entry, so a SparseMatrix is densified."""
    p = Path(path)
    _, write = _FORMATS[_format(p)]
    write(p, a.to_dense())
