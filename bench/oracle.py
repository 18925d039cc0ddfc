"""Independent reference answers and the per-operation correctness check.

References come from LAPACK (``np.linalg.norm(a, 2)`` for sigma) and from
``scipy.sparse.csgraph`` (support components), never from the code under
test.  The one exception is a scaled hard copy, whose classes and
certificate verdicts must match those of its unscaled original: that is
a relation between two runs of the program, so the original's verdicts
come from ``full_analysis`` on the original.  All of this runs outside
the timed region and outside ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from walkbound.core import ZERO_TOL_FACTOR
from walkbound.report import full_analysis

from workloads import Item, Op

SIGMA_RTOL = 1e-8
# The walk-ratio limit is declared once consecutive ratios agree to 1e-9;
# its distance to sigma^2 is a little larger than that.
RATIO_RTOL = 1e-6


@dataclass(frozen=True)
class Reference:
    sigma: float
    frobenius: float
    components: int
    verdicts: dict | None  # classes and certificate verdicts of the original


def support_components(a: np.ndarray) -> int:
    """Connected components of the bipartite support graph, isolated
    rows and columns excluded, by scipy's graph search."""
    mods = np.abs(a)
    rows, cols = np.nonzero(mods > ZERO_TOL_FACTOR * mods.max())
    m, n = a.shape
    graph = scipy.sparse.coo_matrix(
        (np.ones(rows.size), (rows, m + cols)), shape=(m + n, m + n)
    )
    _, labels = connected_components(graph, directed=False)
    return len(set(labels[rows].tolist()))


def verdicts(report: dict) -> dict:
    """The scale-free part of an analyze report: classes and verdicts."""
    cls = report["classification"]
    return {
        "classes": [cls[k] for k in ("is_scalar", "is_regular", "is_pseudo_regular",
                                     "is_almost_regular")],
        "certificates": [(c["theorem"], c["holds"], c["implied_class_verified"])
                         for c in report["certificates"]],
    }


def reference(item: Item) -> Reference:
    a = item.matrix.data
    if not a.imag.any():
        a = a.real  # same answers, a quarter of the LAPACK work
    count = support_components(a)
    if item.blocks is not None and count != item.blocks:
        raise RuntimeError(f"{item.name}: construction gives {count} components, "
                           f"expected {item.blocks}")
    original = None
    if item.original is not None:
        original = verdicts(full_analysis(item.original.matrix))
    peak = float(np.abs(a).max())
    frobenius = peak * float(np.linalg.norm(a / peak)) if peak > 0.0 else 0.0
    return Reference(float(np.linalg.norm(a, 2)), frobenius, count, original)


def _close(value: float, ref: float, rtol: float = SIGMA_RTOL) -> bool:
    return abs(value - ref) <= rtol * ref


class Oracle:
    """Checks every operation; ``check`` returns None or why it failed."""

    def __init__(self, ops: list[Op]):
        self.refs: dict[int, Reference] = {}
        for op in ops:
            if id(op.item) not in self.refs:
                self.refs[id(op.item)] = reference(op.item)
        self._digests: dict[str, str] = {}

    def check(self, op: Op, value, exc: BaseException | None) -> str | None:
        ref = self.refs[id(op.item)]
        if op.refusal is not None:
            if isinstance(exc, op.refusal):
                return None
            return f"expected {op.refusal.__name__}, got {exc!r}"
        if exc is not None:
            return f"{type(exc).__name__}: {exc}"
        if op.call == "analyze":
            if value != 0:
                return f"exit code {value}"
            raw = Path(op.item.out).read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            first = self._digests.setdefault(op.item.path, digest)
            if digest != first:
                return "analyze --json bytes differ from the first run on this input"
            return check_report(op.item, ref, json.loads(raw))
        return _QUERY_CHECKS[op.call](op.item, ref, value)


def _lower_bound(value: float, ref: Reference) -> bool:
    return value <= ref.sigma * (1.0 + SIGMA_RTOL)


def _promise(item: Item, is_regular: bool | None, is_almost: bool | None) -> str | None:
    if item.promise == "regular" and is_regular is not True:
        return "generator promised a regular matrix"
    if item.promise == "almost_regular" and is_almost is not True:
        return "generator promised an almost regular matrix"
    return None


def check_report(item: Item, ref: Reference, report: dict) -> str | None:
    """Oracle for one ``analyze --json`` report."""
    sigma = report["sigma"]["value"]
    if not _close(sigma, ref.sigma):
        return f"sigma {sigma!r} vs reference {ref.sigma!r}"
    for b in report["bounds"]:
        if b["method"] == "schur":
            if b["value"] < ref.sigma * (1.0 - SIGMA_RTOL):
                return f"schur upper bound {b['value']!r} below sigma {ref.sigma!r}"
        elif not _lower_bound(b["value"], ref):
            return f"{b['method']} bound {b['value']!r} exceeds sigma {ref.sigma!r}"
    cls = report["classification"]
    broken = _promise(item, cls["is_regular"], cls["is_almost_regular"])
    if broken:
        return broken
    if report["components"]["count"] != ref.components:
        return f"{report['components']['count']} components, expected {ref.components}"
    if ref.verdicts is not None and verdicts(report) != ref.verdicts:
        return "classes or certificate verdicts differ from the unscaled original"
    return None


def _check_sigma(item, ref, result):
    if not _close(result.sigma, ref.sigma):
        return f"sigma {result.sigma!r} vs reference {ref.sigma!r}"
    return None


def _check_bound(item, ref, report):
    if not _close(report.sigma, ref.sigma):
        return f"reported sigma {report.sigma!r} vs reference {ref.sigma!r}"
    if not _lower_bound(report.value, ref):
        return f"{report.method} bound {report.value!r} exceeds sigma {ref.sigma!r}"
    return None


def _check_classify(item, ref, report):
    broken = _promise(item, report.is_regular, report.is_almost_regular)
    if broken:
        return broken
    if len(report.per_component) != ref.components:
        return f"{len(report.per_component)} components, expected {ref.components}"
    return None


def _check_certificate(item, ref, cert):
    expected = True if item.scalar else None
    if cert.implied_class_verified is not expected:
        return f"{cert.theorem}: implied_class_verified {cert.implied_class_verified!r}"
    if cert.theorem == "T4":
        if not _close(cert.details["sigma"], ref.sigma):
            return f"T4 sigma {cert.details['sigma']!r} vs reference {ref.sigma!r}"
        if item.promise == "regular" and not cert.holds:
            return "T4 must hold on a regular matrix"
    return None


def _check_decompose(item, ref, dec):
    m, n = item.matrix.shape
    if len(dec.components) != ref.components:
        return f"{len(dec.components)} components, expected {ref.components}"
    if sorted(dec.row_perm) != list(range(m)) or sorted(dec.col_perm) != list(range(n)):
        return "row_perm or col_perm is not a permutation"
    return None


def _check_ratio(item, ref, est):
    # Each ratio is a Rayleigh quotient of A A^T, so none exceeds sigma^2;
    # a limit, when the sequence settled within r_max, is sigma^2.
    top = ref.sigma ** 2
    if est.degenerate:
        return "degenerate, but the all-ones vector sees the top singular space"
    if max(est.ratios) > top * (1.0 + SIGMA_RTOL):
        return f"ratio {max(est.ratios)!r} exceeds sigma^2 {top!r}"
    if est.limit is not None and not _close(est.limit, top, RATIO_RTOL):
        return f"ratio limit {est.limit!r} vs sigma^2 {top!r}"
    return None


def _check_spectrum(item, ref, values):
    if values.shape != (min(item.matrix.shape),) or np.any(np.diff(values) > 0):
        return "singular values are not min(m, n) values in descending order"
    if not _close(float(values[0]), ref.sigma):
        return f"largest singular value {values[0]!r} vs reference {ref.sigma!r}"
    if not _close(float(np.sum(values ** 2)), ref.frobenius ** 2):
        return "squared singular values do not sum to the squared Frobenius norm"
    return None


_QUERY_CHECKS = {
    "spectral.largest_singular": _check_sigma,
    "bounds.walk_bound": _check_bound,
    "bounds.weighted_bound": _check_bound,
    "bounds.mean_bound": _check_bound,
    "classify.classify": _check_classify,
    "classify.certify_theorem2": _check_certificate,
    "classify.certify_theorem3": _check_certificate,
    "classify.certify_theorem4": _check_certificate,
    "structure.decompose": _check_decompose,
    "spectral.sigma_ratio_estimate": _check_ratio,
    "spectral.singular_values": _check_spectrum,
}
