import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from walkbound import (
    DenseMatrix,
    DimensionMismatchError,
    GeneratorSpec,
    NonFiniteEntryError,
    SparseMatrix,
    detect_scalar,
    generate,
)
from walkbound.core import (
    _PHASE_SAMPLE,
    ZERO_TOL_FACTOR,
    ScalarityResult,
    col_sums,
    max_modulus,
    row_sums,
    support_mask,
    total_sum,
)


def test_matrix_shape_and_dtype(e1):
    assert e1.shape == (3, 4)
    assert e1.m == 3 and e1.n == 4
    assert e1.data.dtype == np.float64
    # Real, int and bool input, and complex input whose imaginary parts
    # are all zero, is stored as float64; other complex input as complex128.
    for entries in ([[1.5, -2.0]], [[1, 2]], [[True, False]],
                    np.ones((2, 2), dtype=np.float32), [[1 + 0j, -2 - 0j]]):
        a = DenseMatrix(entries)
        assert a.data.dtype == np.float64 and a.is_real()
    for entries in ([[1.0, 2j]], np.full((2, 2), 1j, dtype=np.complex64)):
        a = DenseMatrix(entries)
        assert a.data.dtype == np.complex128 and not a.is_real()
    assert DenseMatrix([[1 + 0j, 2]]) == DenseMatrix([[1.0, 2.0]])


def test_matrix_rejects_wrong_rank():
    with pytest.raises(DimensionMismatchError):
        DenseMatrix([1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        DenseMatrix(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        DenseMatrix(np.zeros((0, 3)))


def test_matrix_rejects_nonfinite():
    with pytest.raises(NonFiniteEntryError):
        DenseMatrix([[1.0, np.inf]])
    with pytest.raises(NonFiniteEntryError):
        DenseMatrix([[np.nan, 0.0]])
    with pytest.raises(NonFiniteEntryError):
        DenseMatrix([[1.0 + 1j * np.inf]])


def test_matrix_is_immutable(e1):
    with pytest.raises(ValueError):
        e1.data[0, 0] = 5.0
    with pytest.raises(AttributeError):
        e1.m = 7


def test_matrix_does_not_alias_input():
    src = np.ones((2, 2))
    a = DenseMatrix(src)
    src[0, 0] = 99.0
    assert a.data[0, 0] == 1.0


def test_equality_is_exact():
    a = DenseMatrix([[1.0]])
    b = DenseMatrix([[1.0]])
    c = DenseMatrix([[1.0 + 1e-15]])
    assert a == b
    assert a != c


def test_reality_and_sign_predicates(e1, c2):
    assert e1.is_real() and e1.is_nonneg()
    assert not c2.is_real() and not c2.is_nonneg()
    assert DenseMatrix([[-1.0, 2.0]]).is_real()
    assert not DenseMatrix([[-1.0, 2.0]]).is_nonneg()


def test_support_threshold_scales_with_magnitude():
    a = DenseMatrix([[1e8, 1e-8], [0.0, 1e-3]])
    assert max_modulus(a) == 1e8
    # 1e-8 sits below 1e8 * 1e-12, so it is not support.
    assert support_mask(a).tolist() == [[True, False], [False, True]]
    # The cutoff is 1e-12 times the largest modulus, itself excluded.
    cut = ZERO_TOL_FACTOR * 1e8
    assert ZERO_TOL_FACTOR == 1e-12
    b = DenseMatrix([[1e8, cut], [0.0, np.nextafter(cut, np.inf)]])
    assert support_mask(b).tolist() == [[True, False], [False, True]]


def test_sums(e1):
    assert total_sum(e1) == 6
    assert row_sums(e1).real.tolist() == [2.0, 2.0, 2.0]
    assert col_sums(e1).real.tolist() == [3.0, 1.0, 1.0, 1.0]


def test_detect_scalar_nonneg(e1):
    sc = detect_scalar(e1)
    assert sc.is_scalar
    assert sc.phase == 1.0
    assert sc.nonneg_part == e1


def test_detect_scalar_zero_matrix():
    sc = detect_scalar(DenseMatrix(np.zeros((2, 3))))
    assert sc.is_scalar and sc.phase == 1.0
    assert sc.nonneg_part is not None
    assert max_modulus(sc.nonneg_part) == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_detect_scalar_real_pivot_has_exact_phase(sign):
    # pivot / abs(pivot) rounds to 0.9999999999999999 for this pivot.
    base = np.array([[0.7147254788486088, 0.25, 0.0], [0.0, 1.5, 3.1]])
    sc = detect_scalar(DenseMatrix(sign * base))
    assert sc.is_scalar
    assert sc.phase == sign
    assert sc.nonneg_part == DenseMatrix(base)


@pytest.mark.parametrize("sign", [1j, -1j], ids=["1j", "-1j"])
def test_detect_scalar_imaginary_pivot_has_exact_phase(sign):
    # pivot / abs(pivot) rounds to 0.9999999999999999j for this input.
    base = generate(GeneratorSpec("block_diag", density=0.7, seed=4,
                                  params={"blocks": [(5, 4), (3, 6), (2, 2)]}))
    sc = detect_scalar(DenseMatrix(sign * base.data))
    assert sc.is_scalar
    assert sc.phase == sign
    assert np.array_equal(sc.nonneg_part.data.view(np.uint64), base.data.view(np.uint64))


def test_detect_scalar_mixed_phases(c2):
    assert not detect_scalar(c2).is_scalar
    assert not detect_scalar(DenseMatrix([[1.0, -1.0]])).is_scalar


def _rotated_with_flip(offset, side=30):
    # exp(0.7i) times a positive ramp after 40 zeros, so the pivot is entry
    # 40, and the same with the entry ``offset`` past the pivot negated.
    base = np.zeros((side, side))
    base.flat[40:] = np.linspace(1.0, 2.0, base.size - 40)
    a = np.exp(0.7j) * base
    flipped = a.copy()
    flipped.flat[40 + offset] *= -1.0
    return a, flipped


@pytest.mark.parametrize("storage", [DenseMatrix, lambda x: SparseMatrix(
    scipy.sparse.csr_array(x))], ids=["dense", "sparse"])
@pytest.mark.parametrize("offset", [5, _PHASE_SAMPLE + 5], ids=["in_sample", "past_sample"])
def test_detect_scalar_fails_an_entry_in_or_past_the_sample(storage, offset):
    a, flipped = _rotated_with_flip(offset)
    assert detect_scalar(storage(a)).is_scalar
    assert detect_scalar(storage(flipped)) == ScalarityResult(False, None, None)


def test_detect_scalar_fails_in_the_sample_without_rotating_every_entry():
    # A failure in the sample leaves the moduli and their flags as the only
    # full-size arrays, 9 bytes an entry against the entries' 16; rotating
    # every entry would add 16 bytes an entry at once.
    a = DenseMatrix(_rotated_with_flip(5, side=200)[1])
    tracemalloc.start()
    try:
        assert not detect_scalar(a).is_scalar
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.values.nbytes


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    theta=st.floats(0.0, 2 * np.pi, allow_nan=False),
)
def test_detect_scalar_recovers_common_phase(seed, theta):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, size=(3, 4))
    phase = np.exp(1j * theta)
    sc = detect_scalar(DenseMatrix(base * phase))
    assert sc.is_scalar
    assert abs(sc.phase - phase) < 1e-10
    assert np.allclose(sc.nonneg_part.data.real, base, atol=1e-10)
