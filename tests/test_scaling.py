"""Every reading of A scales with A.

Multiplying A by c > 0 multiplies A A* by c^2, so the pseudo-regular
characterization keeps its verdict and its eigenvalues scale by c^2, and
the ratio estimator's limit scales by c^(2s).  Every class, certificate
and tightness verdict is the same at every scale, and each reported
number of degree d in A scales by c^d.  A power of two scales every
float exactly, so there the results must be bit-identical.  A unit phase
c changes no number of a nonnegative A's report but the phase and the
readings that need a nonnegative input: at -1 and +-1j bit for bit,
elsewhere within rounding.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.sparse import csr_array

from walkbound import (
    DenseMatrix,
    SparseMatrix,
    WalkScaleError,
    characterize_pseudo_regular,
    classify,
    decompose,
    detect_scalar,
    full_analysis,
    largest_singular,
    mean_bound,
    sigma_ratio_estimate,
    to_json,
)
from walkbound.gen import GeneratorSpec, generate

FIXTURES = {
    "e1": DenseMatrix([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]),
    "random_nonneg": generate(GeneratorSpec("random_nonneg", (4, 5), seed=3)),
    "regular": generate(GeneratorSpec("regular", (6, 4), seed=1)),
    "almost_regular": generate(GeneratorSpec(
        "almost_regular", seed=2,
        params={"blocks": [(3, 3), (2, 4)], "style": "circulant", "target_sigma": 3.0},
    )),
}


def _scaled(a: DenseMatrix, base: int, k: int) -> tuple[DenseMatrix, float]:
    c = 2.0**k if base == 2 else 10.0**k
    return DenseMatrix(c * a.data), c


def _same(x: float, y: float, exact: bool) -> bool:
    return x == y if exact else abs(x - y) <= 1e-12 * abs(y)


@settings(deadline=None, derandomize=True, max_examples=120)
@given(name=st.sampled_from(sorted(FIXTURES)), base=st.sampled_from([2, 10]),
       k=st.integers(-150, 150))
@example(name="e1", base=10, k=-9)  # A A* = 1e-18 (I + J): a Gram route loses it
def test_spectral_readings_scale_with_the_input(name, base, k):
    a = FIXTURES[name]
    ca, c = _scaled(a, base, k)
    exact = base == 2

    ch, cch = characterize_pseudo_regular(a), characterize_pseudo_regular(ca)
    assert cch.satisfied == ch.satisfied == classify(a).is_pseudo_regular
    assert (cch.mu is None) == (ch.mu is None)
    if ch.mu is not None:
        assert _same(cch.mu, c * c * ch.mu, exact)
    assert len(cch.offending_eigenvalues) == len(ch.offending_eigenvalues)
    for got, want in zip(cch.offending_eigenvalues, ch.offending_eigenvalues):
        assert _same(got, c * c * want, exact)
    assert classify(ca).is_pseudo_regular == cch.satisfied

    est, cest = sigma_ratio_estimate(a), sigma_ratio_estimate(ca)
    assert not cest.degenerate and not est.degenerate
    assert _same(cest.limit, c * c * est.limit, exact)
    sigma2 = largest_singular(ca).sigma ** 2
    assert abs(cest.limit - sigma2) <= 1e-6 * sigma2


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_classify_agrees_at_every_scale(name):
    a = FIXTURES[name]
    for k in range(-150, 151, 10):
        ca, _ = _scaled(a, 10, k)
        verdict = classify(ca).is_pseudo_regular
        assert verdict == characterize_pseudo_regular(ca).satisfied, k


def test_characterization_out_of_range_raises_walk_scale_error():
    # The eigenvalues of A A* are about 4e400 here.
    with pytest.raises(WalkScaleError):
        characterize_pseudo_regular(DenseMatrix(1e200 * FIXTURES["e1"].data))


# Inputs of full_analysis: the worked examples, seeded random ones, a
# path graph (the one symmetric input, so the only one with HWH) and one
# above 48 per side, where sigma comes from Lanczos.
REPORT_FIXTURES = {
    "e1": FIXTURES["e1"],
    "c2": DenseMatrix([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "random_nonneg": FIXTURES["random_nonneg"],
    "random_complex": generate(GeneratorSpec("random_complex", (4, 5), seed=3)),
    "path": generate(GeneratorSpec("graph", params={"name": "path", "n": 6})),
    "lanczos": generate(GeneratorSpec("random_nonneg", (60, 70), seed=5)),
}

# Degree in A of each reported number, by key; every other number is
# scale-free.  A bound's gap has the units of sigma, a certificate's is
# relative.
_DEGREE = {"value": 1, "sigma": 1, "residual": 1, "mean_value": 1, "pseudo_lambda": 2}


def _leaves(node, path=()):
    """(path, value) for every leaf of a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _degree(path) -> int:
    if path[0] == "bounds" and path[-1] == "gap":
        return 1
    return _DEGREE.get(path[-1], 0)


@functools.lru_cache(maxsize=None)
def _unit_leaves(name):
    return list(_leaves(full_analysis(REPORT_FIXTURES[name])))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(name=st.sampled_from(sorted(REPORT_FIXTURES)), base=st.sampled_from([2, 10]),
       k=st.integers(-150, 150))
@example(name="random_nonneg", base=10, k=-9)  # pseudo-regular by the old floor
@example(name="random_nonneg", base=10, k=150)  # order-5 weights past 1e300
def test_full_analysis_is_the_same_at_every_scale(name, base, k):
    unit = _unit_leaves(name)
    ca, c = _scaled(REPORT_FIXTURES[name], base, k)
    scaled = list(_leaves(full_analysis(ca)))
    assert [path for path, _ in scaled] == [path for path, _ in unit]
    # Gaps and residuals are rounding noise next to sigma, so at 10^k a
    # number is compared relative to its own size or sigma's, the larger.
    sigma = dict(unit)[("sigma", "value")] * c
    for (path, got), (_, want) in zip(scaled, unit):
        degree = _degree(path)
        if not isinstance(want, float):
            assert got == want, path
        elif base == 2:
            assert got == np.ldexp(want, k * degree), path
        elif degree:
            expect = want * c**degree
            assert abs(got - expect) <= 1e-10 * max(abs(expect), sigma**degree), path


# Seeded nonnegative bases of the phase tests: a small dense one, one
# above 48 per side (Lanczos) and one of several components, each in
# both storages.
_PHASE_BASES = {
    "small": FIXTURES["random_nonneg"].data,
    "lanczos": REPORT_FIXTURES["lanczos"].data,
    "blocks": generate(GeneratorSpec("block_diag", density=0.7, seed=4, params={
        "blocks": [(5, 4), (3, 6), (2, 2)]})).data,
}


def _phased(name, storage, c=1.0):
    data = c * _PHASE_BASES[name]
    return DenseMatrix(data) if storage == "dense" else SparseMatrix(csr_array(data))


def _phase_free(report):
    """``report`` without the input's phase and the bound and certificate
    that need a nonnegative input."""
    return dict(
        report,
        bounds=[b for b in report["bounds"] if b["method"] not in ("hwh", "schur")],
        certificates=[c for c in report["certificates"] if c["theorem"] != "HWH"],
        classification={k: v for k, v in report["classification"].items() if k != "phase"},
    )


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(_PHASE_BASES))
def test_full_analysis_is_the_same_at_every_axis_phase(name, storage):
    # -1 and +-1j rotate back exactly, so every number is the base's.
    want = to_json(_phase_free(full_analysis(_phased(name, storage))))
    for c in (-1.0, 1j, -1j):
        assert to_json(_phase_free(full_analysis(_phased(name, storage, c)))) == want, c


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(_PHASE_BASES))
def test_full_analysis_is_the_same_at_every_phase(name, storage):
    # Any other phase rounds the nonnegative part, which moves floats by
    # rounding only: every flag, count and class stays.
    unit = list(_leaves(_phase_free(full_analysis(_phased(name, storage)))))
    sigma = dict(unit)[("sigma", "value")]
    for c in (np.exp(0.7j), np.exp(-2.1j)):
        rotated = list(_leaves(_phase_free(full_analysis(_phased(name, storage, c)))))
        assert [path for path, _ in rotated] == [path for path, _ in unit]
        for (path, got), (_, want) in zip(rotated, unit):
            if isinstance(want, float):
                degree = 2 if path[-1] == "pseudo_lambda" else 1
                assert abs(got - want) <= 1e-12 * sigma**degree, (c, path)
            else:
                assert got == want, (c, path)


def _verdicts(report):
    cls = report["classification"]
    return (
        [cls[k] for k in ("is_scalar", "is_regular", "is_pseudo_regular",
                          "is_almost_regular")],
        [(c["theorem"], c["holds"], c["implied_class_verified"])
         for c in report["certificates"] if c["theorem"] != "HWH"],
    )


@settings(deadline=None, derandomize=True, max_examples=60)
@given(name=st.sampled_from(sorted(REPORT_FIXTURES)), seed=st.integers(0, 2**32 - 1))
def test_permutations_change_no_verdict(name, seed):
    # Row and column permutations drawn independently break symmetry, so
    # the degree-product certificate, which needs it, is left out.
    a = REPORT_FIXTURES[name]
    rng = np.random.default_rng(seed)
    permuted = DenseMatrix(a.data[rng.permutation(a.m)][:, rng.permutation(a.n)])
    assert _verdicts(full_analysis(permuted)) == _verdicts(full_analysis(a))


def test_public_outputs_are_in_the_input_units():
    c = 2.0**40
    blocks = c * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    ca = DenseMatrix(blocks)
    for comp in decompose(ca).components:
        rows_cols = np.ix_(comp.row_indices, comp.col_indices)
        assert np.array_equal(comp.submatrix.data, blocks[rows_cols])
    for data in (c * FIXTURES["e1"].data, c * np.exp(0.3j) * FIXTURES["e1"].data):
        ca = DenseMatrix(data)
        assert classify(ca).scalarity.nonneg_part == detect_scalar(ca).nonneg_part
    ca = DenseMatrix(c * FIXTURES["random_nonneg"].data)
    assert mean_bound(ca).sigma == largest_singular(ca).sigma


def test_largest_singular_past_float64_raises_walk_scale_error():
    with pytest.raises(WalkScaleError):
        largest_singular(DenseMatrix(1e308 * np.ones((2, 2))))
