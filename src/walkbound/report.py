"""Assembling analysis results into one deterministic report.

The report is a plain dict of JSON types with a fixed key order, so
serializing it twice for the same input gives identical bytes.  Floats
are emitted in Python's shortest lossless form (at most 17 significant
digits), which round-trips exactly.  ``to_json`` writes the bytes of
``json.dumps(report, indent=2, allow_nan=False)`` with the scalar
primitives of ``json``'s own encoder, and writes each list of plain ints
in one join; CPython serves ``indent=2`` with its pure-Python encoder,
which spends most of a large report on the component index lists.

``render`` is the one home of every rendering the CLI prints, as JSON
or as text, keyed by the type of the result.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from . import __version__
from .analysis import Analysis
from .bounds import (
    BoundReport,
    hwh_bound,
    mean_bound,
    schur_upper_bound,
    walk_bound,
    weighted_bound,
)
from .classify import (
    ClassificationReport,
    EqualityCertificate,
    certify_theorem2,
    certify_theorem2_1,
    certify_theorem3,
    certify_theorem4,
    classify,
    hwh_equality_certificate,
)
from .core import Matrix
from .errors import PreconditionError
from .spectral import sigma_method
from .structure import component_sigmas, decompose

SCHEMA_VERSION = 1

_WALK_GRID = ((3, 1), (5, 1), (7, 1), (9, 1), (5, 3), (7, 3), (9, 3))
_WEIGHTED_GRID = (1, 2, 3)


def _num(x):
    if x is None:
        return None
    if isinstance(x, (bool, int, str)):
        return x
    return float(x)


def _complex_dict(z) -> dict | None:
    if z is None:
        return None
    return {"re": float(z.real), "im": float(z.imag)}


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _bound_dict(report: BoundReport) -> dict:
    return {
        "method": report.method,
        "params": {k: _num(v) for k, v in sorted(report.params.items())},
        "value": float(report.value),
        "sigma": float(report.sigma),
        "gap": float(report.gap),
        "tight": bool(report.tight),
        "certificate": report.certificate,
    }


def _bound_text(report: BoundReport) -> str:
    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    extra = f" certificate {_fmt(report.certificate)}" if report.certificate is not None else ""
    return (f"{report.method}{' ' + params if params else ''}: value {report.value:.12g} "
            f"sigma {report.sigma:.12g} gap {report.gap:.3g} tight {_fmt(report.tight)}{extra}")


def _certificate_dict(cert: EqualityCertificate) -> dict:
    return {
        "theorem": cert.theorem,
        "holds": bool(cert.holds),
        "gap": float(cert.gap),
        "implied_class_verified": cert.implied_class_verified,
        "details": {k: _num(v) for k, v in sorted(cert.details.items())},
    }


def _certificate_text(cert: EqualityCertificate) -> str:
    details = "".join(f"\n  {k}: {_fmt(v)}" for k, v in sorted(cert.details.items()))
    return (f"{cert.theorem}: holds {_fmt(cert.holds)} gap {cert.gap:.3g} "
            f"implied-class {_fmt(cert.implied_class_verified)}{details}")


def _classification_dict(report, scalarity=None) -> dict:
    """The classes of ``report``, or none where it is None, the
    classification being undefined, and the input's ``scalarity``."""
    sc = scalarity or report.scalarity
    return {
        "is_scalar": sc.is_scalar,
        "phase": _complex_dict(sc.phase),
        "is_regular": getattr(report, "is_regular", None),
        "is_pseudo_regular": getattr(report, "is_pseudo_regular", None),
        "pseudo_lambda": _num(getattr(report, "pseudo_lambda", None)),
        "is_almost_regular": getattr(report, "is_almost_regular", None),
        "per_component": [
            {"regular": s.regular, "sigma": float(s.sigma)}
            for s in getattr(report, "per_component", ())
        ],
    }


def _classification_text(report: ClassificationReport) -> str:
    lam = f" (lambda {_fmt(report.pseudo_lambda)})" if report.pseudo_lambda is not None else ""
    return "\n".join([
        "scalar: yes",
        f"regular: {_fmt(report.is_regular)}",
        f"pseudo-regular: {_fmt(report.is_pseudo_regular)}{lam}",
        f"almost-regular: {_fmt(report.is_almost_regular)}",
        *(f"component {k}: regular {_fmt(s.regular)} sigma {s.sigma:.12g}"
          for k, s in enumerate(report.per_component)),
    ])


def _components_dict(ctx: Analysis) -> dict:
    dec = decompose(ctx)
    return {
        "count": len(dec.components),
        "isolated_rows": list(dec.isolated_rows),
        "isolated_cols": list(dec.isolated_cols),
        "row_perm": list(dec.row_perm),
        "col_perm": list(dec.col_perm),
        "components": [
            {
                "rows": list(comp.row_indices),
                "cols": list(comp.col_indices),
                "shape": [len(comp.row_indices), len(comp.col_indices)],
                "sigma": ctx.unscaled(sigma),
            }
            for comp, sigma in zip(dec.components, component_sigmas(ctx))
        ],
    }


def _components_text(ctx: Analysis) -> str:
    # The support's components only: no component is solved for its sigma.
    dec = decompose(ctx)
    lines = [f"components: {len(dec.components)}"]
    for k, comp in enumerate(dec.components):
        lines.append(f"  {k}: rows {list(comp.row_indices)} cols {list(comp.col_indices)}")
    if dec.isolated_rows:
        lines.append(f"isolated rows: {list(dec.isolated_rows)}")
    if dec.isolated_cols:
        lines.append(f"isolated cols: {list(dec.isolated_cols)}")
    return "\n".join(lines)


def full_analysis(a: Matrix | Analysis, *, tol: float | None = None,
                  max_iter: int | None = None, literal_t3: bool = False) -> dict:
    """Run the whole pipeline on one matrix and return the report body.

    Every quantity comes from one ``Analysis`` context, so each is
    computed once, and its ``max_iter`` caps every solve.  Numbers are in
    the input's units.  ``tol`` and ``max_iter`` go to ``Analysis.of``
    untouched: given a context, the report uses the context's own, and
    the caller can read afterwards what it computed.
    """
    ctx = Analysis.of(a, tol, max_iter)
    a = ctx.a
    notes: list[str] = []
    spectral = ctx.singular(ctx.basis)
    sc = ctx.scalarity

    bound_reports = []
    # One table at the highest order serves all; a scalar input's modulus is its basis.
    ctx.table(ctx.modulus, max(p for p, _ in _WALK_GRID) if sc.is_scalar else max(_WEIGHTED_GRID))
    if sc.is_scalar:
        for p, r in _WALK_GRID:
            bound_reports.append(walk_bound(ctx, p, r))
    else:
        notes.append("walk ratio bounds skipped: matrix is not scalar")
    for r in _WEIGHTED_GRID:
        bound_reports.append(weighted_bound(ctx, r))
    bound_reports.append(mean_bound(ctx))
    try:
        hwh = hwh_bound(ctx)
    except PreconditionError:  # the degree-product bound does not apply
        hwh = None
    else:
        bound_reports.append(hwh)
    if a.is_nonneg():
        bound_reports.append(schur_upper_bound(ctx))

    try:
        cls, error = classify(ctx), None
    except PreconditionError as exc:
        cls, error = None, str(exc)

    certificates = []
    if ctx.max_modulus == 0.0:
        notes.append("certificates skipped: zero matrix")
    else:
        certificates = [certify_theorem2(ctx), certify_theorem2_1(ctx),
                        certify_theorem3(ctx, include_literal=literal_t3),
                        certify_theorem4(ctx)]
        if hwh is not None:
            certificates.append(hwh_equality_certificate(ctx))

    return {
        "schema": SCHEMA_VERSION,
        "sigma": {
            "value": ctx.unscaled(spectral.sigma),
            "method": sigma_method(a.shape),
            "residual": ctx.unscaled(spectral.residual),
            "iterations": int(spectral.iterations),
        },
        "bounds": [_bound_dict(b) for b in bound_reports],
        "classification": dict(_classification_dict(cls, sc), error=error),
        "certificates": [_certificate_dict(c) for c in certificates],
        "components": _components_dict(ctx),
        "notes": notes,
        "tool_version": __version__,
        "tolerances": {"tol": float(ctx.tol), "max_iter": int(ctx.max_iter)},
    }


def to_json(report: dict) -> str:
    """``json.dumps(report, indent=2, allow_nan=False)``, byte for byte.

    Dict keys must be strings.  A nan or infinite float raises
    ValueError; a value of no JSON type raises TypeError.
    """
    return _write(report, "\n")


def _write(o, newline: str) -> str:
    # json's type order: a bool is not written as an int, and int and
    # float subclasses (np.float64) are written as their base type.
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if {*map(type, o)} == {int}:  # plain ints, no bool: one join
            items = map(repr, o)
        else:
            items = (_write(x, inner) for x in o)
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = (f"{_quote(k)}: {_write(v, inner)}" for k, v in o.items())
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def render_text(report: dict) -> str:
    lines = []
    if "input" in report:
        meta = report["input"]
        lines.append(
            f"input: {meta.get('path', '?')} "
            f"({meta.get('shape', ['?', '?'])[0]}x{meta.get('shape', ['?', '?'])[1]}, "
            f"{meta.get('format', '?')})"
        )
    sig = report["sigma"]
    lines.append(
        f"sigma: {_fmt(sig['value'])}  "
        f"({sig['method']}, {sig['iterations']} steps, "
        f"residual {sig['residual']:.3g})"
    )
    lines.append("bounds:")
    lines.append("  method    params        value            gap              tight")
    for b in report["bounds"]:
        params = " ".join(f"{k}={v}" for k, v in b["params"].items()) or "-"
        lines.append(
            f"  {b['method']:<9} {params:<13} {b['value']:<16.10g} "
            f"{b['gap']:<16.3g} {_fmt(b['tight'])}"
        )
    cls = report["classification"]
    if cls["error"]:
        lines.append(f"classification: unavailable ({cls['error']})")
    else:
        lam = f" (lambda {_fmt(cls['pseudo_lambda'])})" if cls["pseudo_lambda"] is not None else ""
        lines.append(
            "classification: "
            f"scalar {_fmt(cls['is_scalar'])}; regular {_fmt(cls['is_regular'])}; "
            f"pseudo-regular {_fmt(cls['is_pseudo_regular'])}{lam}; "
            f"almost-regular {_fmt(cls['is_almost_regular'])}"
        )
    comp = report["components"]
    lines.append(
        f"components: {comp['count']}  "
        f"isolated rows {comp['isolated_rows'] or 'none'}  "
        f"isolated cols {comp['isolated_cols'] or 'none'}"
    )
    if report["certificates"]:
        lines.append("certificates:")
        for c in report["certificates"]:
            implied = _fmt(c["implied_class_verified"])
            lines.append(
                f"  {c['theorem']:<5} holds {_fmt(c['holds']):<4} "
                f"gap {c['gap']:<12.3g} implied-class {implied}"
            )
    for note in report.get("notes", ()):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# The JSON document and the text of each result type that ``render`` takes.
_RENDERINGS = {
    dict: (lambda report: report, render_text),
    BoundReport: (_bound_dict, _bound_text),
    ClassificationReport: (_classification_dict, _classification_text),
    EqualityCertificate: (_certificate_dict, _certificate_text),
    Analysis: (_components_dict, _components_text),
}


def render(value, as_json: bool) -> str:
    """``value`` as JSON (``to_json`` of its document) or as text: an
    analyze report (a dict), a BoundReport, a ClassificationReport, an
    EqualityCertificate or an ``Analysis``, for its components, whose text
    solves no component.  Only the rendering asked for is computed."""
    document, text = _RENDERINGS[type(value)]
    return to_json(document(value)) if as_json else text(value)
