import importlib
import json
import sys

import numpy as np
import pytest

from walkbound import (
    DenseMatrix,
    PreconditionError,
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
from walkbound.analysis import Analysis
from walkbound.report import (
    _WALK_GRID,
    _WEIGHTED_GRID,
    _bound_dict,
    _certificate_dict,
    _complex_dict,
)


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
def count_calls(monkeypatch):
    """Rebind each counted function at every module binding that holds it,
    as the benchmark's tracer does, and return the call counts."""
    counts = dict.fromkeys((name for _, name in _COUNTED), 0)
    modules = [mod for key, mod in sys.modules.items()
               if key == "walkbound" or key.startswith("walkbound.")]
    for home, name in _COUNTED:
        original = getattr(importlib.import_module(f"walkbound.{home}"), name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def _block_with_isolated_row():
    return DenseMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])


def _fixtures(e1, c2):
    return {
        "E1": e1,
        "C2": c2,
        "iE1": DenseMatrix(1j * e1.data),
        "blocks": _block_with_isolated_row(),
    }


# Solves per fixture: the input, the basis when it is not the input, and
# each component that does not cover the whole matrix.
_EXPECTED_SOLVES = {"E1": 1, "C2": 1, "iE1": 2, "blocks": 3}
# Tables per fixture: the basis (or input), and the entrywise modulus
# unless the input is nonnegative and so its own modulus.
_EXPECTED_TABLES = {"E1": 1, "C2": 2, "iE1": 2, "blocks": 1}
# Support masks per fixture: the input's, and the basis's for the T3
# certificate when the basis is not the input.
_EXPECTED_MASKS = {"E1": 1, "C2": 1, "iE1": 2, "blocks": 1}


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
}


@pytest.mark.parametrize("name", sorted(_CONTEXT_CALLS))
def test_a_context_gives_the_matrix_answer(name):
    fn, args = _CONTEXT_CALLS[name]
    a = _sym_nonneg()
    assert fn(Analysis(a, 1e-6), *args) == fn(a, *args, tol=1e-6)


@pytest.mark.parametrize("name", sorted(_CONTEXT_CALLS))
def test_calls_on_an_analysed_context_recompute_nothing(name, count_calls):
    fn, args = _CONTEXT_CALLS[name]
    ctx = Analysis(_sym_nonneg())
    full_analysis(ctx)
    costly = ("largest_singular", "walk_table", "support_mask")
    before = {k: count_calls[k] for k in costly}
    fn(ctx, *args)
    assert {k: count_calls[k] for k in costly} == before


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
    """The report's entries, each from its own public call."""
    bounds = []
    if detect_scalar(a).is_scalar:
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
        for c in decompose(a).components
    ]
    return {
        "sigma": largest_singular(a).sigma,
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
