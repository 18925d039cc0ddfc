"""Seeded matrix generators and their self-checks.

All randomness flows through numpy's Generator seeded with PCG64, so a
spec with the same fields always produces the same matrix, bit for bit.
Structured kinds (regular, almost_regular) are built from exact circulant
or rank-one patterns rather than projection, so the certified property
holds by construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import DenseMatrix, _is_int
from .classify import classify
from .errors import GeneratorError, WalkboundError

EXAMPLE_LABELS = ("E1", "C2")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    shape: tuple = (1, 1)
    density: float = 1.0
    seed: int = 0
    params: dict = field(default_factory=dict)


def _rng(spec: GeneratorSpec) -> np.random.Generator:
    return np.random.default_rng(spec.seed)


def _thin(values: np.ndarray, density: float, rng: np.random.Generator) -> np.ndarray:
    if density >= 1.0:
        return values
    return values * (rng.random(values.shape) < density)


def _random_nonneg(spec: GeneratorSpec) -> DenseMatrix:
    m, n = spec.shape
    rng = _rng(spec)
    return DenseMatrix(_thin(rng.random((m, n)), spec.density, rng))


def _random_complex(spec: GeneratorSpec) -> DenseMatrix:
    m, n = spec.shape
    rng = _rng(spec)
    values = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return DenseMatrix(_thin(values, spec.density, rng))


def _circulant(first_row: np.ndarray) -> np.ndarray:
    n = first_row.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        out[i] = np.roll(first_row, i)
    return out


def _regular_block(m: int, n: int, density: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Exact equal row sums and equal column sums, any admissible shape."""
    if m % n == 0 or n % m == 0:
        small, big = min(m, n), max(m, n)
        row = _thin(rng.random(small), density, rng)
        if not row.any():
            row[0] = 0.5 + rng.random()
        if m == n:
            return _circulant(row)
        tile = np.vstack([
            _circulant(np.roll(row, int(rng.integers(small))))
            for _ in range(big // small)
        ])
        return tile if m > n else tile.T
    # No circulant tiling fits; fall back to the flat pattern, which is
    # regular for every shape.
    level = 0.5 + rng.random()
    return np.full((m, n), level)


def _regular(spec: GeneratorSpec) -> DenseMatrix:
    return DenseMatrix(_regular_block(*spec.shape, spec.density, _rng(spec)))


def _block_diag_assemble(blocks: list[np.ndarray]) -> np.ndarray:
    m = sum(b.shape[0] for b in blocks)
    n = sum(b.shape[1] for b in blocks)
    out = np.zeros((m, n), dtype=np.result_type(*[b.dtype for b in blocks]))
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out


def _almost_regular(spec: GeneratorSpec) -> DenseMatrix:
    """Block diagonal of regular blocks rescaled to one shared top value.

    The default (ones-style blocks (2,2) and (1,2), target 2) is the
    canonical witness that is almost regular without being regular.
    """
    shapes = [tuple(s) for s in spec.params.get("blocks", [(2, 2), (1, 2)])]
    target = float(spec.params.get("target_sigma", 2.0))
    style = spec.params.get("style", "ones")
    if not 0.0 < target < np.inf:  # also false for nan
        raise GeneratorError("target_sigma must be finite and positive")
    if not shapes:
        raise GeneratorError("almost_regular needs at least one block")
    rng = _rng(spec)
    blocks = []
    for (bm, bn) in shapes:
        if style == "ones":
            base = np.ones((bm, bn))
            top = float(np.sqrt(bm * bn))
        elif style == "circulant":
            base = _regular_block(bm, bn, spec.density, rng)
            rho = base.sum(axis=1)[0]
            gamma = base.sum(axis=0)[0]
            top = float(np.sqrt(rho * gamma))
            if top <= 0.0:
                raise GeneratorError("degenerate circulant block")
        else:
            raise GeneratorError(f"unknown almost_regular style {style!r}")
        blocks.append(base * (target / top))
    return DenseMatrix(_block_diag_assemble(blocks))


def _block_diag(spec: GeneratorSpec) -> DenseMatrix:
    shapes = [tuple(s) for s in spec.params.get("blocks", [(2, 2), (2, 2)])]
    if not shapes:
        raise GeneratorError("block_diag needs at least one block")
    rng = _rng(spec)
    blocks = [_thin(rng.random((bm, bn)), spec.density, rng) for bm, bn in shapes]
    return DenseMatrix(_block_diag_assemble(blocks))


def _graph(spec: GeneratorSpec) -> DenseMatrix:
    name = spec.params.get("name", "path")
    defaults = {"a": 2, "b": 3} if name == "complete_bipartite" else {"n": 3}
    stray = sorted({"n", "a", "b"}.intersection(spec.params).difference(defaults))
    if stray:
        raise GeneratorError(f"graph {name!r} takes the size {' and '.join(defaults)}, "
                             f"not {', '.join(stray)}")
    sizes = {key: spec.params.get(key, value) for key, value in defaults.items()}
    for key, value in sizes.items():
        if not _is_int(value) or value < 0:
            raise GeneratorError(f"graph size {key} must be a non-negative integer, "
                                 f"got {value!r}")
    if sum(sizes.values()) < 1:
        raise GeneratorError("graph needs at least one vertex")
    if name == "complete_bipartite":
        left, right = sizes["a"], sizes["b"]
        adj = np.zeros((left + right, left + right))
        adj[:left, left:] = 1.0
        adj[left:, :left] = 1.0
        return DenseMatrix(adj)
    n = sizes["n"]
    adj = np.zeros((n, n))
    if name == "path":
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
    elif name == "cycle":
        if n < 3:
            raise GeneratorError("cycle needs at least three vertices")
        for i in range(n):
            adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    elif name == "complete":
        adj = np.ones((n, n)) - np.eye(n)
    elif name == "star":
        for i in range(1, n):
            adj[0, i] = adj[i, 0] = 1.0
    else:
        raise GeneratorError(f"unknown graph name {name!r}")
    return DenseMatrix(adj)


def _paper_example(spec: GeneratorSpec) -> DenseMatrix:
    which = spec.params.get("which", "E1")
    if which == "E1":
        return DenseMatrix([
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ])
    if which == "C2":
        return DenseMatrix([
            [1.0 + 1.0j, 1.0 - 1.0j],
            [1.0 - 1.0j, 1.0 + 1.0j],
        ])
    raise GeneratorError(
        f"unknown example {which!r}; available: {', '.join(EXAMPLE_LABELS)}"
    )


# Each kind: its maker and the params it reads; ``generate`` refuses any other.
_DISPATCH = {
    "random_nonneg": (_random_nonneg, ()),
    "random_complex": (_random_complex, ()),
    "regular": (_regular, ()),
    "almost_regular": (_almost_regular, ("blocks", "target_sigma", "style")),
    "block_diag": (_block_diag, ("blocks",)),
    "graph": (_graph, ("name", "n", "a", "b")),
    "paper_example": (_paper_example, ("which",)),
}

KINDS = tuple(_DISPATCH)


def generate(spec: GeneratorSpec) -> DenseMatrix:
    """Materialize a spec; identical specs give bit-identical matrices.

    A param that the kind does not read is refused, not dropped."""
    if spec.kind not in _DISPATCH:
        raise GeneratorError(
            f"unknown generator kind {spec.kind!r}; available: {', '.join(KINDS)}"
        )
    maker, takes = _DISPATCH[spec.kind]
    stray = sorted(set(spec.params).difference(takes))
    if stray:
        raise GeneratorError(f"{spec.kind} takes {', '.join(takes) or 'no params'}, "
                             f"not {', '.join(stray)}")
    shape = spec.shape
    if not (isinstance(shape, (tuple, list)) and len(shape) == 2
            and all(_is_int(k) and k >= 1 for k in shape)):
        raise GeneratorError(f"shape must be two positive integers, got {shape!r}")
    if not (isinstance(spec.density, numbers.Real) and 0.0 <= spec.density <= 1.0):
        raise GeneratorError(f"density must sit in [0, 1], got {spec.density!r}")
    if not _is_int(spec.seed):
        raise GeneratorError(f"seed must be an integer, got {spec.seed!r}")
    if spec.seed < 0:
        raise GeneratorError(f"seed must be non-negative, got {spec.seed}")
    return maker(spec)


def certify(spec: GeneratorSpec, matrix: DenseMatrix) -> bool:
    """Check that a generated matrix has the property its kind promises."""
    try:
        if spec.kind == "regular":
            return classify(matrix).is_regular
        if spec.kind == "almost_regular":
            return classify(matrix).is_almost_regular
        if spec.kind == "graph":
            data = matrix.data
            return (
                data.shape[0] == data.shape[1]
                and matrix.is_real()
                and bool(np.isin(data, (0.0, 1.0)).all())
                and bool(np.array_equal(data, data.T))
            )
        if spec.kind == "paper_example":
            return matrix == _paper_example(spec)
    except WalkboundError:
        return False
    return True
