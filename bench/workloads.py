"""Seeded inputs for the three workloads, and how one operation runs.

Every input is made through ``walkbound.gen.generate`` (composed or
rescaled here where a workload needs a property no generator kind has)
from the ``--seed`` argument, so the same seed gives the same matrices and
files; which entries follow the seed is explained in ``_small_item``.
What the construction fixes about an input (the class a generator
promises, the component count of a block construction, whether the
matrix is scalar) travels with it for the oracle.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from walkbound import cli
from walkbound.core import DenseMatrix
from walkbound.errors import NotScalarError, PreconditionError
from walkbound.gen import GeneratorSpec, generate
from walkbound.mmio import write_matrix

# Near-tie spectra diag(1, 1 - gap, 0.5) and the factors applied to
# ordinary corpus matrices: the hard slice of analyze_small.
NEAR_TIE_GAPS = (1e-2, 1e-4, 1e-6)
SCALE_FACTORS = (1e-3, 1e-9, 1e-160, 1e150, 1e200)


@dataclass
class Item:
    """One input matrix and what its construction guarantees."""

    name: str
    matrix: DenseMatrix
    promise: str | None = None  # "regular" or "almost_regular"
    blocks: int | None = None  # component count fixed by the construction
    scalar: bool = True
    hard: bool = False
    original: Item | None = None  # unscaled source of a scaled copy
    path: str | None = None
    out: str | None = None


@dataclass
class Op:
    """One closed-loop operation: ``analyze`` on a file, or a library call."""

    item: Item
    call: str  # "analyze" or "<module>.<function>"
    args: tuple = ()
    refusal: type | None = None  # documented error the input must raise

    @property
    def label(self) -> str:
        return f"{self.call}({self.item.name})"


def execute(op: Op):
    """Run one operation; return (value, exception).

    Functions are looked up on their modules at call time, so a tracer
    that rebinds them sees every call.
    """
    try:
        if op.call == "analyze":
            value = cli.main(["analyze", op.item.path, "--json", "--out", op.item.out])
        else:
            module, name = op.call.split(".")
            fn = getattr(importlib.import_module(f"walkbound.{module}"), name)
            value = fn(op.item.matrix, *op.args)
    except Exception as exc:  # the oracle judges every error
        return None, exc
    return value, None


def _gen(kind, shape=(1, 1), seed=0, density=1.0, **params) -> DenseMatrix:
    return generate(GeneratorSpec(kind=kind, shape=shape, density=density,
                                  seed=seed, params=params))


def _mixed(shape, seed) -> DenseMatrix:
    """Dense, complex and not scalar, yet with a dominant singular value
    as a real input has one, so the cost of solving for sigma does not
    swing tenfold with the seed as it does on a Gaussian matrix.  Small
    gaps are what the hard slice and analyze_small's Gaussian inputs
    exercise."""
    return DenseMatrix(_gen("random_nonneg", shape, seed).data
                       + 0.25 * _gen("random_complex", shape, seed + 1).data)


def _side(rng, lo, hi) -> int:
    return int(rng.integers(lo, hi + 1))


def _small_item(slot: int, k: int, rng, seed: int) -> Item:
    """The k-th ordinary analyze_small input; ``slot`` picks its kind and
    ``rng`` its shape and structure.

    The seed picks the entries of the kinds whose top singular value is
    well separated by construction (dense nonnegative, a dominant first
    block, the mixed complex kind).  Kinds whose gap is random by nature
    (Gaussian complex, half density, circulants) keep the same entries
    for every seed: a near-tie drawn by one seed would multiply the power
    iteration count of its input, and with it the cost of a pass, or stop
    it with ConvergenceError.  The hard slice covers near-ties on purpose.
    """
    s = seed * 100_003 + k
    if slot == 0:
        shape = (_side(rng, 2, 40), _side(rng, 2, 40))
        return Item(f"nonneg{k}", _gen("random_nonneg", shape, s))
    if slot == 1:
        shape = (_side(rng, 2, 40), _side(rng, 2, 40))
        return Item(f"nonneg_half{k}", _gen("random_nonneg", shape, k, density=0.5))
    if slot == 2:
        shape = (_side(rng, 2, 40), _side(rng, 2, 40))
        return Item(f"complex{k}", _gen("random_complex", shape, k), scalar=False)
    if slot == 3:
        n = _side(rng, 2, 40)
        return Item(f"regular{k}", _gen("regular", (n, n), k), promise="regular")
    if slot == 4:
        n, mult = _side(rng, 2, 13), _side(rng, 2, 3)
        shape = (n * mult, n) if k % 2 else (n, n * mult)
        return Item(f"regular_rect{k}", _gen("regular", shape, k), promise="regular")
    if slot == 5:
        blocks = [(b, b) for b in rng.integers(2, 13, size=_side(rng, 2, 3))]
        a = _gen("almost_regular", seed=k, blocks=blocks, style="circulant",
                 target_sigma=float(1.0 + 4.0 * rng.random()))
        return Item(f"almost_circ{k}", a, promise="almost_regular", blocks=len(blocks))
    if slot == 6:
        blocks = [(_side(rng, 1, 8), _side(rng, 1, 8)) for _ in range(_side(rng, 2, 4))]
        a = _gen("almost_regular", blocks=blocks,
                 target_sigma=float(1.0 + 4.0 * rng.random()))
        return Item(f"almost_ones{k}", a, promise="almost_regular", blocks=len(blocks))
    if slot == 7:
        blocks = [(_side(rng, 10, 14), _side(rng, 10, 14))] + [
            (_side(rng, 1, 6), _side(rng, 1, 6)) for _ in range(_side(rng, 1, 3))]
        a = _gen("block_diag", seed=s, blocks=blocks)
        return Item(f"blocks{k}", a, blocks=len(blocks))
    if slot == 8:
        name = ("path", "cycle", "complete", "star", "complete_bipartite")[k // 12 % 5]
        if name == "complete_bipartite":
            a = _gen("graph", name=name, a=_side(rng, 1, 15), b=_side(rng, 1, 15))
        else:
            a = _gen("graph", name=name, n=_side(rng, 3, 30))
        return Item(f"graph_{name}{k}", a)
    if slot == 9:
        which = ("E1", "C2")[k // 12 % 2]
        return Item(f"example_{which}{k}", _gen("paper_example", which=which),
                    scalar=which == "E1")
    if slot == 10:
        shape = (_side(rng, 2, 8), _side(rng, 20, 40))
        if k % 2:
            shape = shape[::-1]
        return Item(f"nonneg_skinny{k}", _gen("random_nonneg", shape, s))
    shape = (_side(rng, 2, 40), _side(rng, 2, 40))
    return Item(f"mixed{k}", _mixed(shape, s), scalar=False)


_SMALL_SLOTS = 12


def _hard_items(ordinary: list[Item]) -> list[Item]:
    items = [
        Item(f"near_tie{gap:g}", DenseMatrix(np.diag([1.0, 1.0 - gap, 0.5])),
             blocks=3, hard=True)
        for gap in NEAR_TIE_GAPS
    ]
    sources = [it for it in ordinary if it.name.startswith("nonneg")]
    for factor, src in zip(SCALE_FACTORS, sources):
        items.append(Item(f"{src.name}_x{factor:g}", DenseMatrix(src.matrix.data * factor),
                          blocks=src.blocks, hard=True, original=src))
    return items


def _analyze_small(seed: int, tiny: bool) -> list[Item]:
    # Shapes and structure are the same for every seed and the entries
    # follow it, so the mix of sizes, and with it the cost of a pass,
    # stays put from seed to seed.
    rng = np.random.default_rng(0)
    n_ordinary = 24 if tiny else 192
    ordinary = [_small_item(k % _SMALL_SLOTS, k, rng, seed) for k in range(n_ordinary)]
    hard = _hard_items(ordinary)
    # One hard input in every len(items) / len(hard) positions, at fixed
    # places in the cycle: the slice is a fixed share of every run.
    items = list(ordinary)
    step = (n_ordinary + len(hard)) // len(hard)
    for j, item in enumerate(hard):
        items.insert(j * step + step // 2, item)
    return items


def _analyze_large(seed: int, tiny: bool) -> list[Item]:
    div = 10 if tiny else 1
    s = seed * 100_003
    sparse = _gen("random_nonneg", (1000 // div, 1000 // div), s + 1, density=0.01)
    rect = _gen("random_nonneg", (1500 // div, 600 // div), s + 2, density=0.01)
    # Block shapes do not follow the seed, only the entries do, and one
    # block is clearly larger than the rest so sigma is well separated:
    # the cost and memory of this input then stay put from seed to seed.
    # Near-tie spectra are the hard slice's job.
    shape_rng = np.random.default_rng(0)
    n_blocks = 6 if tiny else 60
    shapes = [(36 // div, 40 // div)] + [
        (max(1, _side(shape_rng, 10, 24) // div), max(1, _side(shape_rng, 12, 26) // div))
        for _ in range(n_blocks - 1)
    ]
    blocks = _gen("block_diag", seed=s + 3, blocks=shapes)
    dense = _mixed((300 // div, 250 // div), s + 4)
    # A fifth, mid-cost input puts the median latency inside one input's
    # samples instead of between the slowest of one and the fastest of
    # the next, where it would follow two extremes.
    real = _gen("random_nonneg", (400 // div, 400 // div), s + 5)
    return [
        Item("sparse1000", sparse),
        Item("rect1500x600", rect),
        Item("blocks60", blocks, blocks=n_blocks),
        Item("dense400", real),
        Item("complex300x250", dense, scalar=False),
    ]


_COORDINATE = ("sparse1000", "rect1500x600", "blocks60")


# Library calls of point_queries, as (module.function, extra arguments).
QUERIES = (
    ("spectral.largest_singular", ()),
    ("bounds.walk_bound", (5, 3)),
    ("bounds.weighted_bound", (2,)),
    ("bounds.mean_bound", ()),
    ("classify.classify", ()),
    ("classify.certify_theorem2", ()),
    ("classify.certify_theorem3", ()),
    ("classify.certify_theorem4", ()),
    ("structure.decompose", ()),
    ("spectral.sigma_ratio_estimate", ()),
    ("spectral.singular_values", ()),
)


def _point_items(seed: int, tiny: bool) -> list[Item]:
    # Six kinds at two sizes each: with 132 distinct calls per pass the
    # latencies lie close together around the median, so p50 does not
    # jump between two far-apart calls from one run to the next.
    items = []
    for k, scale in enumerate((1.0, 0.6)):
        f = scale / (10 if tiny else 1)
        s = seed * 100_003 + 10 * k
        tag = "" if k == 0 else "_small"

        def sh(m, n):
            return (max(2, round(m * f)), max(2, round(n * f)))

        circ = [sh(100, 100), sh(60, 120)]
        blocks = [sh(40, 36), sh(30, 28), sh(25, 30), sh(28, 22), sh(22, 26),
                  sh(30, 30), sh(18, 24), sh(26, 20)]
        a, b = sh(100, 140)
        items += [
            Item(f"nonneg{tag}", _gen("random_nonneg", sh(260, 200), s + 1)),
            Item(f"regular{tag}", _gen("regular", sh(220, 220), s + 2), promise="regular"),
            Item(f"almost_circ{tag}", _gen("almost_regular", seed=s + 3, blocks=circ,
                                           style="circulant", target_sigma=3.0),
                 promise="almost_regular", blocks=len(circ)),
            Item(f"blocks8{tag}", _gen("block_diag", seed=s + 4, blocks=blocks),
                 blocks=len(blocks)),
            Item(f"mixed{tag}", _mixed(sh(180, 240), s + 5), scalar=False),
            Item(f"bipartite{tag}", _gen("graph", name="complete_bipartite", a=a, b=b)),
        ]
    return items


def _refusal(call: str, item: Item) -> type | None:
    if not item.scalar and call in ("bounds.walk_bound", "classify.classify"):
        return NotScalarError
    if not item.matrix.is_real() and call == "spectral.sigma_ratio_estimate":
        return PreconditionError
    return None


def _write(items: list[Item], workdir: Path, with_csv: bool) -> None:
    """Matrix Market files, every fourth one CSV when ``with_csv``; the
    large sparse inputs in coordinate layout, which write_matrix lacks."""
    for k, item in enumerate(items):
        if item.name in _COORDINATE:
            path = workdir / f"{k:03d}-{item.name}.mtx"
            scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(item.matrix.data.real))
        else:
            suffix = ".csv" if with_csv and k % 4 == 3 else ".mtx"
            path = workdir / f"{k:03d}-{item.name}{suffix}"
            write_matrix(path, item.matrix)
        item.path = str(path)
        item.out = str(workdir / f"{k:03d}-{item.name}.json")


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """The workload's cycle of operations; analyze inputs are written to workdir."""
    if workload == "point_queries":
        return [
            Op(item, call, args, _refusal(call, item))
            for item in _point_items(seed, tiny)
            for call, args in QUERIES
        ]
    small = workload == "analyze_small"
    items = (_analyze_small if small else _analyze_large)(seed, tiny)
    _write(items, workdir, with_csv=small)
    return [Op(item, "analyze") for item in items]


def warm_up_index(workload: str, ops: list[Op]) -> int:
    """The operation run once during set-up: the cheapest in the cycle."""
    if workload == "analyze_large":
        return len(ops) - 1
    return 0
