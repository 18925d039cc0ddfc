import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from walkbound import (
    DenseMatrix,
    GeneratorSpec,
    NotScalarError,
    PreconditionError,
    SparseMatrix,
    certify_theorem2,
    certify_theorem2_1,
    certify_theorem3,
    certify_theorem4,
    characterize_pseudo_regular,
    classify,
    decompose,
    detect_scalar,
    full_analysis,
    generate,
    hwh_equality_certificate,
    relaxed_pseudo_regular,
)
from walkbound.analysis import Analysis


def _block_diag(*blocks):
    m = sum(b.shape[0] for b in blocks)
    n = sum(b.shape[1] for b in blocks)
    out = np.zeros((m, n))
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return DenseMatrix(out)


def test_e1_classification(e1):
    rep = classify(e1)
    assert rep.scalarity.is_scalar
    assert not rep.is_regular
    assert rep.is_pseudo_regular
    assert rep.pseudo_lambda == pytest.approx(4.0, abs=1e-12)
    assert not rep.is_almost_regular
    assert len(rep.per_component) == 1


def test_e1_transpose_is_also_pseudo_regular(e1):
    # Column weights of the example are (24, 8, 8, 8) = 4 * (6, 2, 2, 2),
    # so the transpose satisfies the same proportionality on its rows.
    rep = classify(DenseMatrix(e1.data.T.real))
    assert rep.is_pseudo_regular
    assert rep.pseudo_lambda == pytest.approx(4.0, abs=1e-12)


def test_w_star_classification(w_star):
    rep = classify(w_star)
    assert not rep.is_regular
    assert rep.is_almost_regular
    assert rep.is_pseudo_regular
    assert [c.regular for c in rep.per_component] == [True, True]
    for c in rep.per_component:
        assert c.sigma == pytest.approx(2.0, abs=1e-9)


def test_unequal_block_kills_pseudo_regularity():
    a = _block_diag(np.ones((2, 2)), np.array([[1.0]]))
    rep = classify(a)
    # Row weights at order 5 are (16, 16, 1) against (4, 4, 1) at order 3:
    # no single ratio fits.
    assert not rep.is_pseudo_regular
    assert rep.pseudo_lambda is None
    assert not rep.is_almost_regular


def test_matched_block_is_regular():
    a = _block_diag(np.ones((2, 2)), np.array([[2.0]]))
    rep = classify(a)
    assert rep.is_regular
    assert rep.is_pseudo_regular
    assert rep.pseudo_lambda == pytest.approx(4.0, abs=1e-12)
    assert rep.is_almost_regular


def test_regular_implies_almost_implies_pseudo():
    rng = np.random.default_rng(21)
    row = rng.uniform(0.2, 1.0, size=5)
    circ = np.array([np.roll(row, k) for k in range(5)])
    rep = classify(DenseMatrix(circ))
    assert rep.is_regular and rep.is_almost_regular and rep.is_pseudo_regular


def test_classify_rejects_non_scalar(c2):
    with pytest.raises(NotScalarError):
        classify(c2)


def test_classify_rejects_zero():
    with pytest.raises(PreconditionError):
        classify(DenseMatrix(np.zeros((2, 2))))


def test_scalar_phase_does_not_change_classes(e1):
    rotated = DenseMatrix(e1.data * np.exp(1.2j))
    rep = classify(rotated)
    assert rep.is_pseudo_regular and not rep.is_regular


def test_characterize_pseudo_regular_e1(e1):
    ch = characterize_pseudo_regular(e1)
    assert ch.satisfied
    assert ch.mu == pytest.approx(4.0, abs=1e-10)
    assert ch.offending_eigenvalues == ()


def test_characterize_detects_failure():
    a = _block_diag(np.ones((2, 2)), np.array([[1.0]]))
    ch = characterize_pseudo_regular(a)
    assert not ch.satisfied
    assert ch.offending_eigenvalues != ()


def test_relaxed_orders(e1):
    assert relaxed_pseudo_regular(e1, 5, 3)
    with pytest.raises(PreconditionError):
        relaxed_pseudo_regular(e1, 4, 3)
    with pytest.raises(PreconditionError):
        relaxed_pseudo_regular(e1, 5, 1)
    with pytest.raises(PreconditionError):
        relaxed_pseudo_regular(e1, 3, 5)


def test_theorem2_on_e1(e1):
    cert = certify_theorem2(e1, s=1, r=0)
    assert cert.theorem == "T2"
    # sigma^2 * w1(R) = 4 * 3 = 12 = w3(R): equality holds, and the
    # implied pseudo-regularity is confirmed by the classifier.
    assert cert.holds
    assert cert.gap <= 1e-12
    assert cert.implied_class_verified is True


def test_theorem2_higher_orders(e1):
    assert certify_theorem2(e1, s=2, r=0).holds
    assert certify_theorem2(e1, s=1, r=1).holds


def test_theorem2_non_pseudo_case():
    a = _block_diag(np.ones((2, 2)), np.array([[1.0]]))
    cert = certify_theorem2(a, s=1, r=0)
    assert not cert.holds
    assert cert.implied_class_verified is True  # nothing implied, nothing broken


def test_theorem2_1_on_w_star(w_star):
    cert = certify_theorem2_1(w_star, r=1, s=1)
    assert cert.theorem == "T2.1"
    assert cert.holds
    assert cert.details["row_gap"] <= 1e-12
    assert cert.details["col_gap"] <= 1e-12
    assert cert.implied_class_verified is True


def test_theorem2_1_on_e1(e1, calls):
    cert = certify_theorem2_1(e1, r=1, s=1)
    assert not cert.holds
    # Row side matches (12 = 12) but the column side misses (16 vs 12).
    assert cert.details["row_gap"] <= 1e-12
    # |16 - 12| relative to the order-3 column total 12.
    assert cert.details["col_gap"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    # A failing equality implies nothing, so almost regularity, whose
    # components would be cut, is never read.
    assert cert.implied_class_verified is True
    assert calls["_cut"] == []
    assert len(calls["largest_singular"]) == 1


def test_theorem3_even_order_agreement(w_star, e1):
    for a in (w_star, e1):
        cert = certify_theorem3(a, r=2)
        assert cert.theorem == "T3"
        assert cert.holds  # the three conditions agree either way
        assert cert.details["support_holds"] == cert.details["equality_holds"]
        assert cert.details["support_holds"] == cert.details["almost_regular"]


def test_theorem3_w_star_all_three_true(w_star):
    cert = certify_theorem3(w_star, r=2)
    assert cert.details["almost_regular"] is True
    assert cert.details["support_holds"] is True
    assert cert.details["equality_holds"] is True
    assert cert.gap <= 1e-10


def test_theorem3_odd_order_is_diagnostic_only(w_star):
    # At order 1 the equality side genuinely fails for a matrix that is
    # almost regular: 2*sqrt(12) != 4 + 2*sqrt(2).  The certificate
    # reports the disagreement instead of hiding it.
    cert = certify_theorem3(w_star, r=1)
    assert cert.details["almost_regular"] is True
    assert cert.details["support_holds"] is True
    assert cert.details["equality_holds"] is False
    assert not cert.holds
    assert cert.implied_class_verified is False


def test_theorem3_literal_gap_exposed(w_star):
    cert = certify_theorem3(w_star, r=2, include_literal=True)
    assert "literal_gap" in cert.details
    plain = certify_theorem3(w_star, r=2)
    assert "literal_gap" not in plain.details



def test_theorem3_reads_the_support_of_its_basis():
    # At tol 0.8 the entry at 135 degrees passes the phase test, but its
    # nonnegative part is 0, so the input's support is wider than the
    # basis's.  Condition (ii) runs on the basis the walk weights come from.
    a = DenseMatrix([[1.0, 0.0], [0.0, 0.5 * np.exp(0.75j * np.pi)]])
    basis = DenseMatrix([[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(detect_scalar(a, tol=0.8).nonneg_part.data, basis.data)
    on_input = certify_theorem3(a, r=2, tol=0.8).details
    on_basis = certify_theorem3(basis, r=2, tol=0.8).details
    assert on_input["support_gap"] == on_basis["support_gap"] == 0.0
    assert on_input["support_holds"] is True


def test_theorem4_regular_case():
    a = DenseMatrix(np.ones((2, 2)))
    cert = certify_theorem4(a)
    assert cert.theorem == "T4"
    assert cert.holds
    assert cert.implied_class_verified is True


def test_theorem4_e1(e1):
    cert = certify_theorem4(e1)
    assert not cert.holds
    assert cert.details["mean_value"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert cert.implied_class_verified is True


def test_certificates_on_non_scalar(c2):
    t2 = certify_theorem2(c2, s=1, r=0)
    assert t2.holds and t2.implied_class_verified is None
    t21 = certify_theorem2_1(c2)
    assert t21.implied_class_verified is None
    assert t21.details["scalar"] is False
    t3 = certify_theorem3(c2, r=2)
    assert t3.holds and t3.implied_class_verified is None
    t4 = certify_theorem4(c2)
    assert t4.holds and t4.implied_class_verified is None
    assert t4.details["scalar"] is False


def test_certificates_reject_zero():
    # HWH is refused before its degree-product bound, square or not.
    for zero in (DenseMatrix(np.zeros((2, 2))), DenseMatrix(np.zeros((2, 3)))):
        for fn in (certify_theorem2, certify_theorem2_1, certify_theorem3, certify_theorem4,
                   hwh_equality_certificate):
            with pytest.raises(PreconditionError,
                               match="^certificates are undefined for the zero matrix$"):
                fn(zero)


def test_hwh_certificate_path3(path3):
    cert = hwh_equality_certificate(path3)
    assert cert.theorem == "HWH"
    assert cert.holds
    assert cert.implied_class_verified is True
    assert cert.details["support_condition"] is True


def test_hwh_certificate_path4(path4):
    cert = hwh_equality_certificate(path4)
    assert not cert.holds
    assert cert.details["support_condition"] is False
    assert cert.implied_class_verified is True


# At these seeds tol * max(1, sigma) and the reported quotient
# |gap| / max(1, sigma) round apart at tol = gap, so a verdict that
# compares anything but the gap it reports misses the flip.
@pytest.mark.parametrize("seed", [6, 14, 19, 37])
@pytest.mark.parametrize("certify", [certify_theorem2, certify_theorem2_1, certify_theorem4,
                                     hwh_equality_certificate])
def test_verdict_flips_at_the_gap_it_reports(rand_symmetric, certify, seed):
    a = rand_symmetric(seed)
    gap = certify(a).gap
    assert gap > 0.0
    assert certify(a, tol=gap).holds
    assert not certify(a, tol=float(np.nextafter(gap, 0.0))).holds


@pytest.fixture
def calls(record_calls):
    """The positional arguments of each call of the solve, the walk table
    and the component cut, by name."""
    seen = {"largest_singular": [], "walk_table": [], "_cut": []}
    record_calls(lambda name, args: seen[name].append(args), ("spectral", "largest_singular"),
                 ("walks", "walk_table"), ("structure", "_cut"))
    return seen


def _two_regular_blocks():
    # Regular as a whole: every row sum and every column sum is 3.
    return _block_diag(np.ones((3, 3)), np.full((4, 4), 0.75))


def test_theorem4_reads_only_regularity(calls):
    cert = certify_theorem4(_two_regular_blocks())
    assert cert.holds and cert.implied_class_verified is True
    assert {k: len(v) for k, v in calls.items()} == {
        "largest_singular": 1, "walk_table": 0, "_cut": 0}


def test_theorem2_reads_only_pseudo_regularity(w_star, calls):
    for a in (w_star, generate(GeneratorSpec("regular", (6, 6), seed=1))):
        for seen in calls.values():
            seen.clear()
        cert = certify_theorem2(a)
        assert cert.holds and cert.implied_class_verified is True
        assert calls["_cut"] == []
        assert len(calls["largest_singular"]) == 1
        # One table serves the equality (order 3) and pseudo_lambda (order 5).
        assert [order for _, order in calls["walk_table"]] == [5]


@pytest.mark.parametrize("r", [1, 2, 4])
def test_theorem3_tabulates_only_its_order(w_star, calls, r):
    certify_theorem3(w_star, r=r)
    assert [order for _, order in calls["walk_table"]] == [r]


def _order_inputs(e1, w_star):
    return {
        "E1": e1,
        "w_star": w_star,
        "two_blocks": _two_regular_blocks(),
        "unequal": _block_diag(np.ones((2, 2)), np.array([[1.0]])),
        "rotated_w_star": DenseMatrix(w_star.data * np.exp(0.4j)),
        "sparse_w_star": SparseMatrix(scipy.sparse.coo_array(w_star.data)),
    }


_CERTIFICATES = {
    "T2": certify_theorem2,
    "T2_s2": lambda ctx: certify_theorem2(ctx, s=2, r=1),
    "T2.1": certify_theorem2_1,
    "T3": lambda ctx: certify_theorem3(ctx, include_literal=True),
    "T3_r3": lambda ctx: certify_theorem3(ctx, r=3),
    "T4": certify_theorem4,
}


@pytest.mark.parametrize("name", ["E1", "w_star", "two_blocks", "unequal", "rotated_w_star",
                                  "sparse_w_star"])
def test_certificates_and_classification_in_any_order(e1, w_star, name):
    a = _order_inputs(e1, w_star)[name]
    alone = {label: cert(Analysis(a)) for label, cert in _CERTIFICATES.items()}
    classified = Analysis(a)
    report = classify(classified)
    after = {label: cert(classified) for label, cert in _CERTIFICATES.items()}
    assert after == alone
    certified = Analysis(a)
    for cert in _CERTIFICATES.values():
        cert(certified)
    assert classify(certified) == classify(a) == report


@pytest.mark.parametrize("label", sorted(_CERTIFICATES))
def test_no_certificate_builds_the_classification(w_star, label, record_calls):
    built = []
    record_calls(lambda name, args: built.append(args), ("classify", "classify"))
    _CERTIFICATES[label](Analysis(w_star))
    assert built == []


@pytest.mark.parametrize("name", ["two_blocks", "w_star", "sparse_w_star"])
def test_certificates_after_full_analysis_cut_nothing(e1, w_star, name, calls):
    ctx = Analysis(_order_inputs(e1, w_star)[name])
    report = full_analysis(ctx)
    cuts = len(calls["_cut"])
    for cert in _CERTIFICATES.values():
        cert(ctx)
    if any(c["theorem"] == "HWH" for c in report["certificates"]):
        hwh_equality_certificate(ctx)
    assert len(calls["_cut"]) == cuts


def test_theorem3_runs_in_two_matrix_sized_arrays():
    m = n = 400
    a = DenseMatrix(np.random.default_rng(8).uniform(size=(m, n)))
    ctx = Analysis(a)
    certify_theorem3(ctx)  # every shared quantity is computed now
    tracemalloc.start()
    try:
        certify_theorem3(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * m * n * 8


def _many_components():
    # Regular, row-regular only, a 1 x 2 row and regular again.
    return _block_diag(np.ones((3, 3)), np.array([[1.0, 1.0], [2.0, 0.0]]),
                       np.array([[1.0, 2.0]]), np.array([[2.0, 1.0], [1.0, 2.0]]))


def _faint_crossing():
    # A stored entry below the zero cutoff in the first component's row
    # and the last component's column.
    a = _many_components().data.copy()
    a[0, -1] = 1e-14
    return SparseMatrix(scipy.sparse.coo_array(a))


def _level(x):
    return x.max() - x.min() <= 1e-8 * max(x.max(), 1e-300)


@pytest.mark.parametrize("name", ["dense", "sparse", "negated", "phase", "faint"])
def test_component_verdicts_read_the_components(name):
    a = {
        "dense": lambda: _many_components(),
        "sparse": lambda: SparseMatrix(scipy.sparse.coo_array(_many_components().data)),
        "negated": lambda: DenseMatrix(-_many_components().data),
        "phase": lambda: SparseMatrix(scipy.sparse.coo_array(
            np.exp(0.7j) * _many_components().data)),
        "faint": _faint_crossing,
    }[name]()
    components = decompose(a).components
    verdicts = [s.regular for s in classify(a).per_component]
    assert len(verdicts) == len(components) == 4
    # A scalar matrix's sums are its phase times its nonnegative part's.
    assert verdicts == [
        _level(np.abs(sub.sum(axis=1))) and _level(np.abs(sub.sum(axis=0)))
        for sub in (comp.submatrix.to_dense().data for comp in components)
    ] == [True, False, False, True]
