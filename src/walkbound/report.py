"""Assembling analysis results into one deterministic report.

The report is a plain dict of JSON types with a fixed key order, so
serializing it twice for the same input gives identical bytes.  Floats
are emitted in Python's shortest lossless form (at most 17 significant
digits), which round-trips exactly.
"""

from __future__ import annotations

import json

from . import __version__
from .analysis import Analysis
from .bounds import mean_bound, schur_upper_bound, walk_bound, weighted_bound
from .classify import (
    certify_theorem2,
    certify_theorem2_1,
    certify_theorem3,
    certify_theorem4,
    hwh_equality_certificate,
)
from .core import DenseMatrix
from .errors import PreconditionError
from .spectral import sigma_method

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
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _bound_dict(report) -> dict:
    return {
        "method": report.method,
        "params": {k: _num(v) for k, v in sorted(report.params.items())},
        "value": float(report.value),
        "sigma": float(report.sigma),
        "gap": float(report.gap),
        "tight": bool(report.tight),
        "certificate": report.certificate,
    }


def _certificate_dict(cert) -> dict:
    return {
        "theorem": cert.theorem,
        "holds": bool(cert.holds),
        "gap": float(cert.gap),
        "implied_class_verified": cert.implied_class_verified,
        "details": {k: _num(v) for k, v in sorted(cert.details.items())},
    }


def _classification_dict(report) -> dict:
    return {
        "is_scalar": True,
        "phase": _complex_dict(report.scalarity.phase),
        "is_regular": report.is_regular,
        "is_pseudo_regular": report.is_pseudo_regular,
        "pseudo_lambda": _num(report.pseudo_lambda),
        "is_almost_regular": report.is_almost_regular,
        "per_component": [
            {"regular": s.regular, "sigma": float(s.sigma)}
            for s in report.per_component
        ],
    }


def _components_dict(ctx: Analysis) -> dict:
    dec = ctx.decomposition
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
                "sigma": ctx.singular(sub).sigma,
            }
            for comp, sub in zip(dec.components, ctx.submatrices(ctx.a))
        ],
    }


def full_analysis(a: DenseMatrix | Analysis, *, tol: float = 1e-8,
                  max_iter: int = 10_000, literal_t3: bool = False) -> dict:
    """Run the whole pipeline on one matrix and return the report body.

    Every quantity comes from one ``Analysis`` context, so each is
    computed once, and ``max_iter`` caps every solve.  Given a context,
    the report uses its ``tol`` and ``max_iter``, and the caller can read
    afterwards what the analysis computed.
    """
    ctx = Analysis.of(a, tol, max_iter)
    a, tol, max_iter = ctx.a, ctx.tol, ctx.max_iter
    notes: list[str] = []
    spectral = ctx.singular(a)
    sigma = spectral.sigma
    sc = ctx.scalarity
    zero = ctx.max_modulus == 0.0

    bound_reports = []
    if sc.is_scalar:
        # One table at the grid's highest order serves every lower order.
        ctx.table(ctx.basis, max(p for p, _ in _WALK_GRID))
        for p, r in _WALK_GRID:
            bound_reports.append(walk_bound(ctx, p, r))
    else:
        notes.append("walk ratio bounds skipped: matrix is not scalar")
    ctx.table(ctx.modulus, max(_WEIGHTED_GRID))
    for r in _WEIGHTED_GRID:
        bound_reports.append(weighted_bound(ctx, r))
    bound_reports.append(mean_bound(ctx))
    try:
        hwh = ctx.hwh_report
    except PreconditionError:  # the degree-product bound does not apply
        hwh = None
    else:
        bound_reports.append(hwh)
    if a.is_nonneg():
        bound_reports.append(schur_upper_bound(ctx))

    try:
        classification = dict(_classification_dict(ctx.classification), error=None)
    except PreconditionError as exc:
        classification = {
            "is_scalar": sc.is_scalar,
            "phase": _complex_dict(sc.phase),
            "is_regular": None,
            "is_pseudo_regular": None,
            "pseudo_lambda": None,
            "is_almost_regular": None,
            "per_component": [],
            "error": str(exc),
        }

    certificates = []
    if zero:
        notes.append("certificates skipped: zero matrix")
    else:
        certificates.append(_certificate_dict(certify_theorem2(ctx, s=1, r=0)))
        certificates.append(_certificate_dict(certify_theorem2_1(ctx, r=1, s=1)))
        certificates.append(_certificate_dict(
            certify_theorem3(ctx, r=2, include_literal=literal_t3)
        ))
        certificates.append(_certificate_dict(certify_theorem4(ctx)))
        if hwh is not None:
            certificates.append(_certificate_dict(hwh_equality_certificate(ctx)))

    return {
        "schema": SCHEMA_VERSION,
        "sigma": {
            "value": float(sigma),
            "method": sigma_method(a.shape),
            "residual": float(spectral.residual),
            "iterations": int(spectral.iterations),
        },
        "bounds": [_bound_dict(b) for b in bound_reports],
        "classification": classification,
        "certificates": certificates,
        "components": _components_dict(ctx),
        "notes": notes,
        "tool_version": __version__,
        "tolerances": {"tol": float(tol), "max_iter": int(max_iter)},
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False)


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


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
