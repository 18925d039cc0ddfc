import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from walkbound import DenseMatrix, InputFormatError, read_matrix, write_matrix


def test_mtx_round_trip_real(tmp_path, e1):
    path = tmp_path / "m.mtx"
    write_matrix(path, e1)
    assert read_matrix(path) == e1


def test_mtx_round_trip_complex(tmp_path, c2):
    path = tmp_path / "m.mtx"
    write_matrix(path, c2)
    assert read_matrix(path) == c2


def test_mtx_round_trip_awkward_values(tmp_path):
    a = DenseMatrix([[1e-300, 7.1], [1 / 3, 2.0 ** 52]])
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    assert read_matrix(path) == a


def test_csv_round_trip_real(tmp_path, e1):
    path = tmp_path / "m.csv"
    write_matrix(path, e1)
    assert read_matrix(path) == e1


def test_csv_round_trip_complex(tmp_path, c2):
    path = tmp_path / "m.csv"
    write_matrix(path, c2)
    assert read_matrix(path) == c2


def test_csv_accepts_i_and_j_suffixes(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1+2i, 3\n-1i, 0.5+0j\n")
    a = read_matrix(path)
    assert a.data[0, 0] == 1 + 2j
    assert a.data[1, 0] == -1j


def test_csv_spaces_next_to_a_sign_or_the_unit(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5 - 2i, 3 + 1 i\n- 4,1e- 3\n")
    assert read_matrix(path).data.tolist() == [[1.5 - 2j, 3 + 1j], [-4, 1e-3]]


def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path):
    # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(b"1,2.5\n-3,4+1i\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_matrix(marked) == read_matrix(plain)


def test_write_is_byte_stable(tmp_path, c2):
    p1 = tmp_path / "a.mtx"
    p2 = tmp_path / "b.mtx"
    write_matrix(p1, c2)
    write_matrix(p2, c2)
    assert p1.read_bytes() == p2.read_bytes()


def _per_entry_matrix_market(a: DenseMatrix) -> str:
    """The writer as one loop over the entries: the reference layout."""
    data, real = a.data, a.is_real()
    lines = [f"%%MatrixMarket matrix array {'real' if real else 'complex'} general",
             f"{a.m} {a.n}"]
    for j in range(a.n):
        for i in range(a.m):
            z = data[i, j]
            if real:
                lines.append(repr(float(z.real)))
            else:
                lines.append(f"{float(z.real)!r} {float(z.imag)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("entries", [
    [[-0.0, 5e-324], [1e-310, 1e300], [1 / 3, -2.0 ** 60]],
    [[1 + 2j, -0.0 - 0.0j], [5e-324j, 1e300 - 1e-310j]],
    np.random.default_rng(7).random((6, 4)),
    np.random.default_rng(8).standard_normal((3, 5)) * (1 - 2j),
    [[3.0]],
    # More entries than one chunk of the writer: several chunks.
    np.random.default_rng(9).random((70, 130)),
    np.random.default_rng(9).random((70, 130)) * (1 - 2j),
])
def test_mtx_writer_matches_the_per_entry_layout(tmp_path, entries):
    a = DenseMatrix(entries)
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    assert path.read_text() == _per_entry_matrix_market(a)


def _per_entry_csv(a: DenseMatrix) -> str:
    """The CSV writer as one loop over the entries: the reference layout."""
    lines = []
    for row in a.data:
        cells = []
        for z in row:
            z = complex(z)
            if z.imag == 0.0:
                cells.append(repr(float(z.real)))
            else:
                sign = "+" if z.imag >= 0.0 else "-"
                cells.append(f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}i")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("entries", [
    [[-0.0, 5e-324], [1e-310, 1e300], [1 / 3, -2.0 ** 60]],
    [[1 + 2j, -0.0 - 0.0j, 3 - 4j], [5e-324j, 1e300 - 1e-310j, -0.5 + 0.0j]],
    np.random.default_rng(7).random((6, 4)),
    np.random.default_rng(8).standard_normal((3, 5)) * (1 - 2j),
    [[3.0]],
    np.random.default_rng(9).random((130, 70)),
    np.random.default_rng(9).random((130, 70)) * (1 - 2j),
])
def test_csv_writer_matches_the_per_entry_layout(tmp_path, entries):
    a = DenseMatrix(entries)
    path = tmp_path / "m.csv"
    write_matrix(path, a)
    assert path.read_bytes() == _per_entry_csv(a).encode()


@pytest.mark.parametrize("suffix", [".mtx", ".csv"])
def test_write_peaks_below_the_file_size(tmp_path, suffix):
    # The body is formatted a chunk at a time, not held whole.
    a = DenseMatrix(np.random.default_rng(10).random((500, 500)))
    path = tmp_path / f"m{suffix}"
    tracemalloc.start()
    try:
        write_matrix(path, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_csv_layout(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(path, DenseMatrix([[1.5, -0.0], [2 - 3j, 0.25j]]))
    assert path.read_bytes() == b"1.5,-0.0\n2.0-3.0i,0.0+0.25i\n"


def test_mtx_header_layout(tmp_path, e1):
    path = tmp_path / "m.mtx"
    write_matrix(path, e1)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "3 4"
    assert len(lines) == 2 + 12


def test_complex_header(tmp_path, c2):
    path = tmp_path / "m.mtx"
    write_matrix(path, c2)
    assert "complex" in path.read_text().splitlines()[0]


def test_scipy_coordinate_files_load(tmp_path):
    path = tmp_path / "sparse.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 2\n"
        "1 1 2.5\n"
        "3 2 1.0\n"
    )
    a = read_matrix(path)
    assert a.shape == (3, 3)
    dense = a.to_dense().data
    assert dense[0, 0] == 2.5
    assert dense[2, 1] == 1.0
    assert dense[1, 1] == 0.0


def test_mtx_read_runs_on_one_thread_and_restores_the_setting(tmp_path, monkeypatch, e1):
    import scipy.io
    # fast_matrix_market exists from scipy 1.12 on; the older reader has no pool.
    fmm = pytest.importorskip("scipy.io._fast_matrix_market")
    monkeypatch.setattr(fmm, "PARALLELISM", 3)  # the caller's own setting
    during = []
    mmread = scipy.io.mmread

    def spy(*args, **kwargs):
        during.append(fmm.PARALLELISM)
        return mmread(*args, **kwargs)

    monkeypatch.setattr(scipy.io, "mmread", spy)
    good, bad = tmp_path / "good.mtx", tmp_path / "bad.mtx"
    write_matrix(good, e1)
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nx\n3\n4\n")
    assert read_matrix(good) == e1
    assert fmm.PARALLELISM == 3
    with pytest.raises(InputFormatError):
        read_matrix(bad)
    assert fmm.PARALLELISM == 3
    assert during == [1, 1]


def test_mtx_reads_on_several_threads_restore_the_setting(tmp_path, monkeypatch, e1):
    fmm = pytest.importorskip("scipy.io._fast_matrix_market")
    monkeypatch.setattr(fmm, "PARALLELISM", 3)
    path = tmp_path / "m.mtx"
    write_matrix(path, e1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-swap as often as possible
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda _: read_matrix(path), range(200), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(a == e1 for a in results)
    assert fmm.PARALLELISM == 3


def test_mtx_reads_without_fast_matrix_market(tmp_path, monkeypatch, e1):
    # As on scipy 1.10, whose Python reader has no PARALLELISM to set.
    import scipy.io
    monkeypatch.delattr(scipy.io, "_fast_matrix_market", raising=False)
    path = tmp_path / "m.mtx"
    write_matrix(path, e1)
    assert read_matrix(path) == e1


def test_missing_file():
    with pytest.raises(InputFormatError):
        read_matrix("/nonexistent/never.mtx")


def test_unknown_suffix(tmp_path):
    path = tmp_path / "m.xyz"
    path.write_text("1,2\n")
    with pytest.raises(InputFormatError):
        read_matrix(path)


def test_ragged_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(InputFormatError):
        read_matrix(path)


def test_garbage_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,banana\n")
    with pytest.raises(InputFormatError):
        read_matrix(path)


def test_garbage_mtx(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("this is not a matrix\n")
    with pytest.raises(InputFormatError):
        read_matrix(path)
