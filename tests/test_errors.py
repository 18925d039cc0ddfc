"""Each documented refusal of the library raises its type with its message."""

import pytest
import scipy.sparse

from walkbound import (
    DenseMatrix,
    DimensionMismatchError,
    GeneratorError,
    GeneratorSpec,
    InputFormatError,
    PreconditionError,
    certify_theorem2,
    certify_theorem2_1,
    certify_theorem3,
    certify_theorem4,
    characterize_pseudo_regular,
    classify,
    detect_scalar,
    full_analysis,
    generate,
    hermitian_eigen,
    hwh_bound,
    hwh_equality_certificate,
    largest_singular,
    mean_bound,
    read_matrix,
    relaxed_pseudo_regular,
    schur_upper_bound,
    singular_multiset_check,
    walk_bound,
    weighted_bound,
    write_matrix,
)
from walkbound.analysis import Analysis
from walkbound.core import SparseMatrix
from walkbound.spectral import sigma_ratio_estimate
from walkbound.walks import walk_identity_residual, walk_table

E1 = DenseMatrix([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
PATH3 = DenseMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
REG4 = DenseMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])


def _csv(tmp_path, data):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    return path


def _gen(kind, **params):
    return generate(GeneratorSpec(kind=kind, params=params))


# (call on a scratch directory, error type, message; "{tmp}" is that directory)
_DOCUMENTED = {
    "weighted_bound r=0": (lambda tmp: weighted_bound(E1, r=0),
                           PreconditionError, "r must be at least 1, got 0"),
    "hwh_bound zero row sum": (lambda tmp: hwh_bound(DenseMatrix([[1.0, 0.0], [0.0, 0.0]])),
                               PreconditionError, "degree-product bound needs positive row sums"),
    "schur_upper_bound complex": (lambda tmp: schur_upper_bound(DenseMatrix([[1j, 1.0]])),
                                  PreconditionError, "the upper bound needs real entries"),
    "certify_theorem2 s=0": (lambda tmp: certify_theorem2(E1, s=0),
                             PreconditionError, "s must be at least 1, got 0"),
    "certify_theorem2_1 r=0": (lambda tmp: certify_theorem2_1(E1, r=0),
                               PreconditionError, "r must be at least 1, got 0"),
    "certify_theorem3 r=0": (lambda tmp: certify_theorem3(E1, r=0),
                             PreconditionError, "r must be at least 1, got 0"),
    "largest_singular max_iter=0": (lambda tmp: largest_singular(E1, max_iter=0),
                                    PreconditionError, "max_iter must be at least 1, got 0"),
    "sigma_ratio_estimate s=0": (lambda tmp: sigma_ratio_estimate(E1, s=0),
                                 PreconditionError, "s must be at least 1, got 0"),
    "sigma_ratio_estimate r_max=0": (lambda tmp: sigma_ratio_estimate(E1, r_max=0),
                                     PreconditionError, "r_max must be at least 1, got 0"),
    "sigma_ratio_estimate r_max=2.5": (lambda tmp: sigma_ratio_estimate(E1, r_max=2.5),
                                       PreconditionError, "r_max must be an integer, got 2.5"),
    "sigma_ratio_estimate s=True": (lambda tmp: sigma_ratio_estimate(E1, s=True),
                                    PreconditionError, "s must be an integer, got True"),
    "walk_table order=5.0": (lambda tmp: walk_table(E1, 5.0),
                             PreconditionError, "walk order must be an integer, got 5.0"),
    "walk_table order=True": (lambda tmp: walk_table(E1, True),
                              PreconditionError, "walk order must be an integer, got True"),
    "WalkTable row 2.0": (lambda tmp: walk_table(E1, 3).row(2.0),
                          PreconditionError, "walk order must be an integer, got 2.0"),
    "walk_bound p=5.0": (lambda tmp: walk_bound(E1, 5.0, 3),
                         PreconditionError, "p must be an integer, got 5.0"),
    "walk_bound r=True": (lambda tmp: walk_bound(E1, 3, True),
                          PreconditionError, "r must be an integer, got True"),
    "weighted_bound r=2.0": (lambda tmp: weighted_bound(E1, 2.0),
                             PreconditionError, "r must be an integer, got 2.0"),
    "weighted_bound r=True": (lambda tmp: weighted_bound(E1, True),
                              PreconditionError, "r must be an integer, got True"),
    "certify_theorem3 r=2.0": (lambda tmp: certify_theorem3(E1, r=2.0),
                               PreconditionError, "r must be an integer, got 2.0"),
    "certify_theorem3 r=True": (lambda tmp: certify_theorem3(E1, r=True),
                                PreconditionError, "r must be an integer, got True"),
    "certify_theorem2 s=1.0": (lambda tmp: certify_theorem2(E1, s=1.0),
                               PreconditionError, "s must be an integer, got 1.0"),
    "certify_theorem2 r=True": (lambda tmp: certify_theorem2(E1, r=True),
                                PreconditionError, "r must be an integer, got True"),
    "certify_theorem2 r=-1": (lambda tmp: certify_theorem2(E1, r=-1),
                              PreconditionError, "r must be at least 0, got -1"),
    "certify_theorem2_1 r=True": (lambda tmp: certify_theorem2_1(E1, r=True),
                                  PreconditionError, "r must be an integer, got True"),
    "certify_theorem2_1 s=1.5": (lambda tmp: certify_theorem2_1(E1, s=1.5),
                                 PreconditionError, "s must be an integer, got 1.5"),
    "relaxed_pseudo_regular r=5.0": (lambda tmp: relaxed_pseudo_regular(E1, 5.0, 3.0),
                                     PreconditionError, "r must be an integer, got 5.0"),
    "relaxed_pseudo_regular s=True": (lambda tmp: relaxed_pseudo_regular(E1, 5, True),
                                      PreconditionError, "s must be an integer, got True"),
    "largest_singular max_iter=2.5": (lambda tmp: largest_singular(E1, max_iter=2.5),
                                      PreconditionError, "max_iter must be an integer, got 2.5"),
    "largest_singular max_iter=True": (lambda tmp: largest_singular(E1, max_iter=True),
                                       PreconditionError, "max_iter must be an integer, got True"),
    "Analysis max_iter=0": (lambda tmp: Analysis(E1, max_iter=0),
                            PreconditionError, "max_iter must be at least 1, got 0"),
    "Analysis max_iter=2.0": (lambda tmp: Analysis(E1, max_iter=2.0),
                              PreconditionError, "max_iter must be an integer, got 2.0"),
    "walk_identity_residual r=-1": (lambda tmp: walk_identity_residual(E1, -1, 1),
                                    PreconditionError, "r must be at least 0, got -1"),
    "walk_identity_residual r=True": (lambda tmp: walk_identity_residual(E1, True, 1),
                                      PreconditionError, "r must be an integer, got True"),
    "walk_identity_residual s=0.0": (lambda tmp: walk_identity_residual(E1, 1, 0.0),
                                     PreconditionError, "s must be an integer, got 0.0"),
    # One bad tolerance at each function that takes one; 0 stays an exact test.
    "classify tol=nan": (lambda tmp: classify(REG4, tol=float("nan")),
                         PreconditionError, "tol must be finite and nonnegative, got nan"),
    "Analysis tol=-1e-8": (lambda tmp: Analysis(E1, tol=-1e-8),
                           PreconditionError, "tol must be finite and nonnegative, got -1e-08"),
    "detect_scalar tol=nan": (lambda tmp: detect_scalar(DenseMatrix([[1, -1], [2, 1j]]),
                                                        tol=float("nan")),
                              PreconditionError, "tol must be finite and nonnegative, got nan"),
    "largest_singular tol=nan": (lambda tmp: largest_singular(E1, tol=float("nan")),
                                 PreconditionError, "tol must be finite and nonnegative, got nan"),
    "hermitian_eigen tol=nan": (lambda tmp: hermitian_eigen(DenseMatrix([[1, 5], [0, 1]]),
                                                            tol=float("nan")),
                                PreconditionError, "tol must be finite and nonnegative, got nan"),
    "singular_multiset_check tol=inf": (lambda tmp: singular_multiset_check(E1, tol=float("inf")),
                                        PreconditionError,
                                        "tol must be finite and nonnegative, got inf"),
    # A tolerance that is not a real number is refused the same way.
    "classify tol='1e-3'": (lambda tmp: classify(E1, tol="1e-3"),
                            PreconditionError, "tol must be a real number, got '1e-3'"),
    "detect_scalar tol=None": (lambda tmp: detect_scalar(E1, tol=None),
                               PreconditionError, "tol must be a real number, got None"),
    "largest_singular tol=True": (lambda tmp: largest_singular(E1, tol=True),
                                  PreconditionError, "tol must be a real number, got True"),
    "Analysis tol=1j": (lambda tmp: Analysis(E1, tol=1j),
                        PreconditionError, "tol must be a real number, got 1j"),
    # A setting given with a context is refused: the context holds its own.
    "walk_bound tol with an Analysis": (
        lambda tmp: walk_bound(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "weighted_bound tol with an Analysis": (
        lambda tmp: weighted_bound(Analysis(E1), tol=-5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "mean_bound tol with an Analysis": (
        lambda tmp: mean_bound(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "hwh_bound tol with an Analysis": (
        lambda tmp: hwh_bound(Analysis(PATH3), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "schur_upper_bound tol with an Analysis": (
        lambda tmp: schur_upper_bound(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "classify tol with an Analysis": (
        lambda tmp: classify(Analysis(E1), tol=float("nan")),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "characterize_pseudo_regular tol with an Analysis": (
        lambda tmp: characterize_pseudo_regular(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "relaxed_pseudo_regular tol with an Analysis": (
        lambda tmp: relaxed_pseudo_regular(Analysis(E1), 5, 3, tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "certify_theorem2 tol with an Analysis": (
        lambda tmp: certify_theorem2(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "certify_theorem2_1 tol with an Analysis": (
        lambda tmp: certify_theorem2_1(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "certify_theorem3 tol with an Analysis": (
        lambda tmp: certify_theorem3(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "certify_theorem4 tol with an Analysis": (
        lambda tmp: certify_theorem4(Analysis(E1), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "hwh_equality_certificate tol with an Analysis": (
        lambda tmp: hwh_equality_certificate(Analysis(PATH3), tol=0.5),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "full_analysis tol with an Analysis": (
        lambda tmp: full_analysis(Analysis(E1), tol=float("inf"), max_iter=-3),
        PreconditionError, "tol cannot be given with an Analysis, which holds its own tol"),
    "full_analysis max_iter with an Analysis": (
        lambda tmp: full_analysis(Analysis(E1), max_iter=3),
        PreconditionError,
        "max_iter cannot be given with an Analysis, which holds its own max_iter"),
    "almost_regular no blocks": (lambda tmp: _gen("almost_regular", blocks=[]),
                                 GeneratorError, "almost_regular needs at least one block"),
    "almost_regular unknown style": (lambda tmp: _gen("almost_regular", style="zebra"),
                                     GeneratorError, "unknown almost_regular style 'zebra'"),
    "block_diag no blocks": (lambda tmp: _gen("block_diag", blocks=[]),
                             GeneratorError, "block_diag needs at least one block"),
    "graph n=0": (lambda tmp: _gen("graph", name="path", n=0),
                  GeneratorError, "graph needs at least one vertex"),
    "cycle:2": (lambda tmp: _gen("graph", name="cycle", n=2),
                GeneratorError, "cycle needs at least three vertices"),
    "unknown paper_example": (lambda tmp: _gen("paper_example", which="E9"),
                              GeneratorError, "unknown example 'E9'; available: E1, C2"),
    "random_nonneg target_sigma": (
        lambda tmp: _gen("random_nonneg", target_sigma=float("nan")),
        GeneratorError, "random_nonneg takes no params, not target_sigma"),
    "regular which": (lambda tmp: _gen("regular", which="E1"),
                      GeneratorError, "regular takes no params, not which"),
    "paper_example blocks": (lambda tmp: _gen("paper_example", blocks=[(2, 2)]),
                             GeneratorError, "paper_example takes which, not blocks"),
    "block_diag style and which": (lambda tmp: _gen("block_diag", which="E1", style="ones"),
                                   GeneratorError, "block_diag takes blocks, not style, which"),
    "empty CSV cell": (lambda tmp: read_matrix(_csv(tmp, b"1,2\n3, \n")),
                       InputFormatError, "empty cell at m.csv:2"),
    "CSV cell of two numbers": (lambda tmp: read_matrix(_csv(tmp, b"1 2,3\n")),
                                InputFormatError, "cannot parse '1 2' at m.csv:1"),
    "CSV bad cell past the first row": (lambda tmp: read_matrix(_csv(tmp, b"1,2\n3,banana\n")),
                                        InputFormatError, "cannot parse 'banana' at m.csv:2"),
    "CSV with no rows": (lambda tmp: read_matrix(_csv(tmp, b"\n\n")),
                         InputFormatError, "{tmp}/m.csv: no matrix rows found"),
    "CSV not UTF-8": (lambda tmp: read_matrix(_csv(tmp, b"1,\xff\n")),
                      InputFormatError, "{tmp}/m.csv: not UTF-8 text"),
    "write_matrix .txt": (lambda tmp: write_matrix(tmp / "m.txt", E1), InputFormatError,
                          "unsupported extension '.txt'; expected .mtx, .mm, or .csv"),
    "SparseMatrix (0, 3)": (lambda tmp: SparseMatrix(scipy.sparse.csr_array((0, 3))),
                            DimensionMismatchError,
                            "expected a 2-D matrix with positive extents, got shape (0, 3)"),
}


@pytest.mark.parametrize("name", list(_DOCUMENTED))
def test_documented_error(tmp_path, name):
    call, error, message = _DOCUMENTED[name]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(tmp=tmp_path)


def test_zero_tol_is_an_exact_test():
    assert classify(REG4, tol=0.0).is_regular
    assert not classify(DenseMatrix([[1.0, 1.0], [1.0, 1.0 + 2**-40]]), tol=0.0).is_regular
    assert detect_scalar(E1, tol=0.0).is_scalar
    assert len(hermitian_eigen(PATH3, tol=0.0)) == 3
    assert singular_multiset_check(E1, tol=0.0)


def test_write_matrix_refuses_the_suffix_before_densifying(tmp_path):
    class Undensifiable:
        def to_dense(self):
            raise AssertionError("densified before the suffix was checked")

    with pytest.raises(InputFormatError, match="unsupported extension '.npy'"):
        write_matrix(tmp_path / "m.npy", Undensifiable())
    assert not list(tmp_path.iterdir())


_ARRAY_HEADER = b"%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("body", [b"2 2\n1\n2\n3\n", b"2 2\n1\nx\n3\n4\n", b"1\n2\n3\n4\n",
                                  b"2 2\n1\n2\n3\n4\n5\n"],
                         ids=["too few values", "non-numeric token", "no size line",
                              "too many values"])
def test_malformed_matrix_market_array(tmp_path, body):
    # Only the type and the path prefix: scipy's own message differs
    # between its Python reader and fast_matrix_market.
    path = tmp_path / "m.mtx"
    path.write_bytes(_ARRAY_HEADER + body)
    with pytest.raises(InputFormatError) as exc:
        read_matrix(path)
    assert type(exc.value) is InputFormatError
    assert str(exc.value).startswith(f"{path}: ")


def test_matrix_market_fortran_exponent(tmp_path, monkeypatch):
    import scipy.io
    path = tmp_path / "m.mtx"
    path.write_bytes(_ARRAY_HEADER + b"1 1\n1.0D+00\n")
    if getattr(scipy.io, "_fast_matrix_market", None) is not None:  # scipy 1.12 on
        assert read_matrix(path) == DenseMatrix([[1.0]])
    # scipy's Python reader, the only one before scipy 1.12, refuses the D,
    # and the refusal keeps the path prefix.  The test reaches that reader
    # through scipy.io._mmio; a scipy 1.10 install itself is unverified.
    monkeypatch.setattr(scipy.io, "mmread", scipy.io._mmio.mmread)
    with pytest.raises(InputFormatError) as exc:
        read_matrix(path)
    assert type(exc.value) is InputFormatError
    assert str(exc.value).startswith(f"{path}: ")
