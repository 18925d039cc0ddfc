import inspect
import json
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from walkbound import (
    DenseMatrix,
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
    hwh_bound,
    hwh_equality_certificate,
    largest_singular,
    mean_bound,
    relaxed_pseudo_regular,
    render_text,
    schur_upper_bound,
    to_json,
    walk_bound,
    weighted_bound,
    write_matrix,
)
from walkbound import cli
from walkbound.analysis import Analysis, reading
from walkbound.core import DEFAULT_MAX_ITER, DEFAULT_TOL
from walkbound.report import (
    _WALK_GRID,
    _WEIGHTED_GRID,
    _bound_dict,
    _certificate_dict,
    _complex_dict,
    render,
)
from walkbound.spectral import sigma_ratio_estimate


def test_report_shape(e1):
    rep = full_analysis(e1)
    assert rep["schema"] == 1
    assert rep["sigma"]["value"] == pytest.approx(2.0, abs=1e-10)
    methods = {b["method"] for b in rep["bounds"]}
    assert {"walk", "weighted", "mean", "schur"} <= methods
    assert rep["classification"]["is_pseudo_regular"] is True
    assert rep["classification"]["error"] is None
    labels = [c["theorem"] for c in rep["certificates"]]
    assert labels == ["T2", "T2.1", "T3", "T4"]
    assert rep["components"]["count"] == 1
    assert rep["tolerances"]["tol"] == 1e-8


def test_report_serializes_to_plain_json(e1):
    rep = full_analysis(e1)
    text = to_json(rep)
    assert json.loads(text)["schema"] == 1
    # Only plain types inside; a second dump is identical.
    assert to_json(json.loads(text)) == text


def test_report_non_scalar_paths(c2):
    rep = full_analysis(c2)
    assert rep["classification"]["error"]
    assert rep["classification"]["is_regular"] is None
    assert any("walk ratio bounds skipped" in note for note in rep["notes"])
    for cert in rep["certificates"]:
        assert cert["implied_class_verified"] is None


def test_report_zero_matrix():
    rep = full_analysis(DenseMatrix(np.zeros((2, 3))))
    assert rep["sigma"]["value"] == 0.0
    assert rep["certificates"] == []
    assert any("zero matrix" in note for note in rep["notes"])
    assert rep["classification"]["error"]


def test_report_includes_hwh_only_when_it_applies(e1, path3):
    no_hwh = full_analysis(e1)
    assert "HWH" not in [c["theorem"] for c in no_hwh["certificates"]]
    with_hwh = full_analysis(path3)
    assert "HWH" in [c["theorem"] for c in with_hwh["certificates"]]


def test_literal_flag_adds_detail(w_star):
    rep = full_analysis(w_star, literal_t3=True)
    t3 = next(c for c in rep["certificates"] if c["theorem"] == "T3")
    assert "literal_gap" in t3["details"]


def test_text_rendering_mentions_the_essentials(e1):
    rep = full_analysis(e1)
    text = render_text(rep)
    assert "sigma: 2" in text
    assert "pseudo-regular yes" in text
    assert "T2.1" in text
    assert text.endswith("\n")


@pytest.mark.parametrize("name, lines", [
    ("C2", ["classification: unavailable (classification is defined for scalar matrices; "
            "entries do not share a common phase)",
            "note: walk ratio bounds skipped: matrix is not scalar"]),
    ("zero", ["classification: unavailable (classification is undefined for the zero matrix)",
              "note: certificates skipped: zero matrix"]),
])
def test_text_rendering_says_what_is_unavailable(c2, name, lines):
    a = c2 if name == "C2" else DenseMatrix(np.zeros((2, 3)))
    text = render_text(full_analysis(a)).splitlines()
    assert [line for line in text if "unavailable" in line or line.startswith("note:")] == lines


# One analysis: the layer functions below run once per distinct matrix.
_COUNTED = (
    ("spectral", "largest_singular"),
    ("core", "detect_scalar"),
    ("core", "support_mask"),
    ("structure", "decompose"),
    ("walks", "walk_table"),
    ("classify", "classify"),
)


@pytest.fixture
def count_calls(record_calls):
    """The number of calls of each counted function."""
    counts = dict.fromkeys((name for _, name in _COUNTED), 0)
    record_calls(lambda name, _: counts.__setitem__(name, counts[name] + 1), *_COUNTED)
    return counts


def _block_with_isolated_row():
    return DenseMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])


def _one_block_with_isolated():
    return SparseMatrix(scipy.sparse.coo_array(
        np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 1.0, 0.0]])))


def _one_block_with_faint_entry():
    # Row 1 and column 2 hold only a stored entry below the zero cutoff.
    return SparseMatrix(scipy.sparse.coo_array(
        np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1e-14], [3.0, 1.0, 0.0]])))


def _lanczos_nonneg():
    # Above 48 per side, so sigma comes from Lanczos.
    return np.random.default_rng(9).uniform(size=(60, 50))


def _fixtures(e1, c2):
    return {
        "E1": e1,
        "C2": c2,
        "iE1": DenseMatrix(1j * e1.data),
        "blocks": _block_with_isolated_row(),
        "one_block": _one_block_with_isolated(),
        "-one_block": SparseMatrix(-_one_block_with_isolated().data),
        "faint": _one_block_with_faint_entry(),
        "-lanczos": SparseMatrix(scipy.sparse.csr_array(-_lanczos_nonneg())),
        "ilanczos": DenseMatrix(1j * _lanczos_nonneg()),
    }


# Solves per fixture: the basis (the nonnegative part of a scalar input,
# the input otherwise), and each component that does not cover the whole
# matrix, unless it is the only one and holds every nonzero entry: it
# then has the basis's sigma.  The faint fixture's one component leaves
# out a stored entry, so it is solved.
_EXPECTED_SOLVES = {"E1": 1, "C2": 1, "iE1": 1, "blocks": 3, "one_block": 1,
                    "-one_block": 1, "faint": 2, "-lanczos": 1, "ilanczos": 1}
# Tables per fixture: the basis, which the weighted bounds tabulate as
# well when the input is scalar, and the entrywise modulus otherwise.
_EXPECTED_TABLES = {"E1": 1, "C2": 2, "iE1": 1, "blocks": 1, "one_block": 1,
                    "-one_block": 1, "faint": 1, "-lanczos": 1, "ilanczos": 1}
# Support masks per fixture: the input's, and the basis's, which the T3
# certificate reads, when the basis is not the input.
_EXPECTED_MASKS = {"E1": 1, "C2": 1, "iE1": 2, "blocks": 1, "one_block": 1,
                   "-one_block": 2, "faint": 1, "-lanczos": 2, "ilanczos": 2}


@pytest.mark.parametrize("name", sorted(_EXPECTED_SOLVES))
def test_full_analysis_computes_each_quantity_once(name, e1, c2, count_calls):
    full_analysis(_fixtures(e1, c2)[name])
    assert count_calls == {
        "largest_singular": _EXPECTED_SOLVES[name],
        "detect_scalar": 1,
        "support_mask": _EXPECTED_MASKS[name],
        "decompose": 1,
        "walk_table": _EXPECTED_TABLES[name],
        "classify": 1,
    }


def test_full_analysis_computes_the_sums_once(record_calls):
    # A symmetric nonnegative input, where every reader of the sums
    # applies: the basis's row and column sums and its total once each.
    counts = dict.fromkeys(("row_sums", "col_sums", "total_sum"), 0)
    record_calls(lambda name, _: counts.__setitem__(name, counts[name] + 1),
                 *(("core", name) for name in counts))
    full_analysis(_sym_nonneg())
    assert counts == {"row_sums": 1, "col_sums": 1, "total_sum": 1}


def test_an_input_that_is_not_scalar_has_no_row_or_column_summed(record_calls, c2):
    # T4 reads the basis's total alone; regularity is refused first.
    counts = dict.fromkeys(("row_sums", "col_sums"), 0)
    record_calls(lambda name, _: counts.__setitem__(name, counts[name] + 1),
                 *(("core", name) for name in counts))
    full_analysis(c2)
    assert counts == {"row_sums": 0, "col_sums": 0}


def test_none_settings_are_the_defaults(e1):
    ctx = Analysis(e1, tol=None, max_iter=None)
    assert (ctx.tol, ctx.max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)


def _sym_nonneg():
    x = np.random.default_rng(3).uniform(size=(5, 5))
    return DenseMatrix(x + x.T)


# Each function that takes a matrix or a context, with arguments under
# which it applies to a symmetric nonnegative matrix.
_CONTEXT_CALLS = {
    "walk_bound": (walk_bound, (5, 3)),
    "weighted_bound": (weighted_bound, (2,)),
    "mean_bound": (mean_bound, ()),
    "hwh_bound": (hwh_bound, ()),
    "schur_upper_bound": (schur_upper_bound, ()),
    "certify_theorem2": (certify_theorem2, ()),
    "certify_theorem2_1": (certify_theorem2_1, ()),
    "certify_theorem3": (certify_theorem3, (2,)),
    "certify_theorem4": (certify_theorem4, ()),
    "hwh_equality_certificate": (hwh_equality_certificate, ()),
    "characterize_pseudo_regular": (characterize_pseudo_regular, ()),
    "relaxed_pseudo_regular": (relaxed_pseudo_regular, (5, 3)),
    "classify": (classify, ()),
    "full_analysis": (full_analysis, ()),
    "sigma_ratio_estimate": (sigma_ratio_estimate, (1, 20)),
}


@pytest.mark.parametrize("name", sorted(_CONTEXT_CALLS))
def test_a_context_gives_the_matrix_answer(name):
    fn, args = _CONTEXT_CALLS[name]
    a = _sym_nonneg()
    # The ratio estimator takes no tolerance; every other call takes one.
    settings = {"tol": 1e-6} if "tol" in inspect.signature(fn).parameters else {}
    assert fn(Analysis(a, **settings), *args) == fn(a, *args, **settings)


@pytest.mark.parametrize("name", sorted(_CONTEXT_CALLS))
def test_calls_on_an_analysed_context_recompute_nothing(name, count_calls):
    fn, args = _CONTEXT_CALLS[name]
    ctx = Analysis(_sym_nonneg())
    full_analysis(ctx)
    costly = ("largest_singular", "walk_table", "support_mask")
    before = {k: count_calls[k] for k in costly}
    fn(ctx, *args)
    assert {k: count_calls[k] for k in costly} == before


def _counted_reading(fails=0):
    """A reading of the row count that records the tol of each run and
    raises on its first ``fails`` runs."""
    runs = []

    @reading
    def rows(ctx):
        runs.append(ctx.tol)
        if len(runs) <= fails:
            raise PreconditionError("not yet")
        return ctx.a.m

    return rows, runs


def test_a_reading_runs_once_per_context(e1):
    rows, runs = _counted_reading()
    ctx = Analysis(e1, 1e-6)
    assert [rows(ctx), rows(ctx)] == [3, 3]
    assert runs == [1e-6]  # the reading reads its context's tol
    assert rows(Analysis(e1)) == 3
    assert runs == [1e-6, DEFAULT_TOL]


def test_a_reading_that_raises_is_not_kept(e1):
    rows, runs = _counted_reading(fails=1)
    ctx = Analysis(e1)
    with pytest.raises(PreconditionError):
        rows(ctx)
    assert [rows(ctx), rows(ctx)] == [3, 3]
    assert len(runs) == 2


@pytest.mark.parametrize("name", ["E1", "-E1", "w_star", "path3", "nonneg", "signed"])
def test_zero_imaginary_parts_give_the_same_bytes(name, e1, w_star, path3, rand_nonneg):
    rng = np.random.default_rng(5)
    x = {
        "E1": e1.data,
        "-E1": -e1.data,
        "w_star": w_star.data,
        "path3": path3.data,
        "nonneg": rand_nonneg(7, min_dim=3).data,
        "signed": rng.normal(size=(5, 4)),
    }[name]
    assert to_json(full_analysis(DenseMatrix(x))) == to_json(full_analysis(DenseMatrix(x + 0j)))


def test_cli_analyze_builds_one_support_mask(e1, tmp_path, count_calls):
    # The input block's nnz reads the analysis's mask, not a second one.
    path = tmp_path / "e1.mtx"
    write_matrix(path, e1)
    assert cli.main(["analyze", str(path), "--json", "--out", str(tmp_path / "r.json")]) == 0
    assert count_calls["support_mask"] == 1


def test_components_text_solves_no_component(count_calls):
    # Two blocks: the JSON solves each, the text only lists them.
    ctx = Analysis(DenseMatrix(np.kron(np.eye(2), np.ones((2, 2)))))
    assert render(ctx, as_json=False).startswith("components: 2\n")
    assert count_calls["largest_singular"] == 0
    assert json.loads(render(ctx, as_json=True))["count"] == 2
    assert count_calls["largest_singular"] == 2


def test_walk_bound_without_sigma_solves_once(e1, count_calls):
    for a in (e1, DenseMatrix(1j * e1.data)):
        count_calls["largest_singular"] = 0
        walk_bound(a, 5, 3)
        assert count_calls["largest_singular"] == 1


@pytest.mark.parametrize("phase", [1.0, -1.0, 1j, np.exp(0.3j), np.exp(-2.1j)])
def test_nonneg_part_has_the_input_sigma(phase, e1, w_star, path4):
    for base in (e1, w_star, path4):
        a = DenseMatrix(phase * base.data)
        sig = largest_singular(a).sigma
        sig_nonneg = largest_singular(detect_scalar(a).nonneg_part).sigma
        assert abs(sig - sig_nonneg) <= 1e-8 * max(1.0, sig)


def _standalone_report(a):
    """The report's entries, each from its own public call; sigma and the
    component sigmas are solved on the basis, the nonnegative part of a
    scalar input."""
    sc = detect_scalar(a)
    basis = sc.nonneg_part if sc.is_scalar else a
    bounds = []
    if sc.is_scalar:
        bounds += [walk_bound(a, p, r) for p, r in _WALK_GRID]
    bounds += [weighted_bound(a, r) for r in _WEIGHTED_GRID]
    bounds.append(mean_bound(a))
    certificates = [
        certify_theorem2(a, s=1, r=0),
        certify_theorem2_1(a, r=1, s=1),
        certify_theorem3(a, r=2),
        certify_theorem4(a),
    ]
    try:
        bounds.append(hwh_bound(a))
    except PreconditionError:
        pass
    else:
        certificates.append(hwh_equality_certificate(a))
    if a.is_nonneg():
        bounds.append(schur_upper_bound(a))
    try:
        cls = classify(a)
        classification = {
            "phase": _complex_dict(cls.scalarity.phase),
            "is_regular": cls.is_regular,
            "is_pseudo_regular": cls.is_pseudo_regular,
            "pseudo_lambda": cls.pseudo_lambda,
            "is_almost_regular": cls.is_almost_regular,
            "per_component": [{"regular": s.regular, "sigma": s.sigma}
                              for s in cls.per_component],
            "error": None,
        }
    except PreconditionError as exc:
        classification = {"error": str(exc)}
    components = [
        {"rows": list(c.row_indices), "cols": list(c.col_indices),
         "sigma": largest_singular(c.submatrix).sigma}
        for c in decompose(basis).components
    ]
    return {
        "sigma": largest_singular(basis).sigma,
        "bounds": [_bound_dict(b) for b in bounds],
        "certificates": [_certificate_dict(c) for c in certificates],
        "classification": classification,
        "components": components,
    }


@pytest.mark.parametrize("name", ["E1", "C2", "iE1", "blocks", "path3"])
def test_shared_context_changes_no_number(name, e1, c2, path3):
    a = {**_fixtures(e1, c2), "path3": path3}[name]
    rep = full_analysis(a)
    expected = _standalone_report(a)
    assert rep["sigma"]["value"] == expected["sigma"]
    assert rep["bounds"] == expected["bounds"]
    assert rep["certificates"] == expected["certificates"]
    got = rep["classification"]
    assert {k: got[k] for k in expected["classification"]} == expected["classification"]
    assert [{k: c[k] for k in ("rows", "cols", "sigma")}
            for c in rep["components"]["components"]] == expected["components"]


# ``to_json`` writes the bytes of ``json.dumps(x, indent=2, allow_nan=False)``.
def _dumps(x) -> str:
    return json.dumps(x, indent=2, allow_nan=False)


_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | st.text())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.recursive(
    _SCALARS | st.lists(st.integers(), min_size=1),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40,
))
def test_to_json_is_json_dumps(value):
    assert to_json(value) == _dumps(value)


@pytest.mark.parametrize("text", [
    "", "plain", "caf\u00e9", "\u65e5\u672c", "\U0001f600", "\u2028", '"quoted"',
    "back\\slash", "\x00\x01\x1f\t\n\r\x7f", "a/b",
])
def test_to_json_strings(text):
    assert to_json(text) == _dumps(text)
    assert to_json({text: [text]}) == _dumps({text: [text]})
    assert to_json(text).isascii()


class _Renamed(int):
    """An int subclass with its own text, which json does not use."""

    def __repr__(self):
        return "renamed"

    __str__ = __repr__


@pytest.mark.parametrize("number", [
    True, False, None, 0, -1, 2 ** 70, -(10 ** 40), _Renamed(3), 0.0, -0.0, 0.1, 1e-7,
    1e16, 5e-324, sys.float_info.max, -sys.float_info.max, np.float64(0.1),
    np.float64(-0.0),
])
def test_to_json_numbers(number):
    assert to_json(number) == _dumps(number)
    assert to_json([number, {"x": number}]) == _dumps([number, {"x": number}])


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": [], "b": {}},
    {"ints": [3, 1, 2], "mixed": [1, 2.5, "x", None], "nested": [[1, 2], (3,)]},
    [1, True, 0, False], [True], [False, 1], (7, 8, 9), [2 ** 70, -1],
])
def test_to_json_containers(value):
    assert to_json(value) == _dumps(value)


def test_to_json_writes_a_bool_in_an_int_list_as_json():
    assert to_json([1, True]) == "[\n  1,\n  true\n]"


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    [1, float("inf")], {"a": {"b": [float("nan")]}},
])
def test_to_json_rejects_nan_and_inf(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _dumps(bad)
    with pytest.raises(ValueError, match="not JSON compliant"):
        to_json(bad)


@pytest.mark.parametrize("bad", [np.int64(3), [np.int64(1), np.int64(2)], {"a": object()},
                                 np.float32(1.0), {1, 2}])
def test_to_json_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError) as expected:
        _dumps(bad)
    with pytest.raises(TypeError) as got:
        to_json(bad)
    assert str(got.value) == str(expected.value)


def _isolated():
    # Row 1 and column 2 are zero: one isolated row and one isolated column.
    return DenseMatrix([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])


def _multi_block():
    blocks = scipy.sparse.block_diag([np.ones((2, 3)), np.full((3, 2), 0.5), [[2.0]]])
    return SparseMatrix(blocks)


@pytest.mark.parametrize("name", ["E1", "C2", "zero", "isolated", "blocks", "sparse_blocks"])
def test_to_json_writes_full_reports_as_json_does(name, e1, c2):
    a = {
        "E1": e1, "C2": c2, "zero": DenseMatrix(np.zeros((2, 3))),
        "isolated": _isolated(), "blocks": _multi_block().to_dense(),
        "sparse_blocks": _multi_block(),
    }[name]
    rep = full_analysis(a)
    assert to_json(rep) == _dumps(rep)
