"""Reading and writing matrices on disk.

Two formats: Matrix Market (.mtx or .mm; array and coordinate layouts,
real, integer, complex or pattern fields, symmetric storage expanded on
read) and CSV (.csv) with complex literals written as a+bi.  One table,
``_FORMATS``, maps each suffix to its reader and its writer, and
``_format`` names a path's format ("mtx", "mm" or "csv", as a report's
``input.format`` shows it) or refuses its suffix.  A Matrix
Market file is read by scipy's parser, imported on first use, on the
calling thread: scipy 1.12 on would start a pool of one thread per core
on every read, which on a few shared cores costs more than it saves.  The
storage follows the file's layout: a coordinate file becomes a
``SparseMatrix`` with no m x n array formed, an array file or a CSV file
a ``DenseMatrix``.  Writing is done here so the byte layout stays fixed:
array layout, column major, one value per line, shortest lossless float
representation; the entries are formatted and written a chunk at a
time.  A CSV file may start with a UTF-8 byte-order mark.
"""

from __future__ import annotations

import csv
import re
import threading
from pathlib import Path

from .core import DenseMatrix, Matrix, SparseMatrix
from .errors import InputFormatError


# Held while a Matrix Market read swaps scipy's process-wide thread
# setting, so reads on several threads all put back the caller's value.
_PARALLELISM_LOCK = threading.Lock()
_CHUNK = 4096  # entries a writer formats at a time: it never holds the whole text
# Spaces next to a sign or before the imaginary unit, which a cell drops,
# so "1.5 - 2i" and "3 + 1 i" read; "1 2" stays two numbers and is refused.
_SPACES = re.compile(r" *([+-]) *| +(?=[ijIJ])")


def _parse_complex(token: str, name: str, lineno: int) -> complex:
    # The location "name:lineno" is formatted only when the cell fails.
    text = token.strip()
    if " " in text:  # 40 ns a cell; the substitution takes 3 us (Python 3.11)
        text = _SPACES.sub(r"\1", text)
    if not text:
        raise InputFormatError(f"empty cell at {name}:{lineno}")
    try:
        return complex(text.replace("i", "j").replace("I", "j"))
    except ValueError as exc:
        raise InputFormatError(f"cannot parse {token!r} at {name}:{lineno}") from exc


def _read_csv(path: Path) -> DenseMatrix:
    rows, name = [], path.name
    # utf-8-sig: a leading byte-order mark, as spreadsheets write, is skipped.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            for lineno, record in enumerate(csv.reader(handle), start=1):
                if not record:
                    continue
                rows.append([_parse_complex(cell, name, lineno) for cell in record])
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text") from exc
    if not rows:
        raise InputFormatError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputFormatError(f"{path}: rows have inconsistent lengths")
    return DenseMatrix(rows)


def _read_matrix_market(path: Path) -> Matrix:
    import scipy.io  # deferred: a CSV read and ``import walkbound`` load no scipy
    import scipy.sparse

    # fast_matrix_market (scipy 1.12 on) reads with one thread per core
    # by default (PARALLELISM = 0); this read takes one thread and puts
    # the caller's setting back.  scipy 1.10's Python reader has no pool.
    fmm = getattr(scipy.io, "_fast_matrix_market", None)
    with _PARALLELISM_LOCK:
        if fmm is not None:
            caller, fmm.PARALLELISM = fmm.PARALLELISM, 1
        try:
            loaded = scipy.io.mmread(str(path))
        except Exception as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
        finally:
            if fmm is not None:
                fmm.PARALLELISM = caller
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
    step = max(1, _CHUNK // a.m)  # columns per chunk
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array {'real' if real else 'complex'} general\n"
                 f"{a.m} {a.n}\n")
        for j in range(0, a.n, step):
            block = a.data[:, j:j + step].T.ravel()  # column major
            if real:
                fh.write("\n".join(map(repr, block.tolist())) + "\n")
            else:  # each entry as the pair of its float64 parts
                fh.write("%r %r\n" * block.size % tuple(block.view(float).tolist()))


def _write_csv(path: Path, a: DenseMatrix) -> None:
    fmt = repr if a.is_real() else _fmt_complex_csv
    step = max(1, _CHUNK // a.n)  # rows per chunk
    with open(path, "w", newline="") as fh:
        for i in range(0, a.m, step):
            rows = a.data[i:i + step].tolist()  # as Python floats or complexes
            fh.write("".join(",".join(map(fmt, row)) + "\n" for row in rows))


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
