"""The spectral readings of A scale with A.

Multiplying A by c > 0 multiplies A A* by c^2, so the pseudo-regular
characterization keeps its verdict and its eigenvalues scale by c^2, and
the ratio estimator's limit scales by c^(2s).  A power of two scales
every float exactly, so there the results must be bit-identical.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkbound import (
    DenseMatrix,
    WalkScaleError,
    characterize_pseudo_regular,
    classify,
    largest_singular,
    sigma_ratio_estimate,
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

# The fixtures in the pseudo-regular class, where classify's verdict
# does not depend on the scale (see test_classify_agrees_at_every_scale).
PSEUDO_REGULAR = ("e1", "regular", "almost_regular")


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
    if name in PSEUDO_REGULAR:
        try:
            assert classify(ca).is_pseudo_regular == cch.satisfied
        except WalkScaleError:  # order-5 weights overflow at large c
            pass

    est, cest = sigma_ratio_estimate(a), sigma_ratio_estimate(ca)
    assert not cest.degenerate and not est.degenerate
    assert _same(cest.limit, c * c * est.limit, exact)
    sigma2 = largest_singular(ca).sigma ** 2
    assert abs(cest.limit - sigma2) <= 1e-6 * sigma2


@pytest.mark.xfail(strict=True, reason=(
    "classify's proportionality test compares against tol * max(1, |w5|), "
    "an absolute floor that calls any matrix pseudo-regular once its "
    "weights are small"))
def test_classify_agrees_at_every_scale():
    a = FIXTURES["random_nonneg"]
    for k in range(-150, 151, 10):
        ca, _ = _scaled(a, 10, k)
        try:
            verdict = classify(ca).is_pseudo_regular
        except WalkScaleError:
            continue
        assert verdict == characterize_pseudo_regular(ca).satisfied, k


def test_characterization_out_of_range_raises_walk_scale_error():
    # The eigenvalues of A A* are about 4e400 here.
    with pytest.raises(WalkScaleError):
        characterize_pseudo_regular(DenseMatrix(1e200 * FIXTURES["e1"].data))
