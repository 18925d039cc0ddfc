import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walkbound import (
    DenseMatrix,
    NotScalarError,
    PreconditionError,
    hwh_bound,
    mean_bound,
    schur_upper_bound,
    singular_values,
    walk_bound,
    walk_table,
    weighted_bound,
)
from walkbound.analysis import Analysis
from walkbound.core import relative_gap


def test_walk_bound_e1_is_tight(e1):
    rep = walk_bound(e1, 3, 1)
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    assert rep.tight
    assert rep.params == {"p": 3, "r": 1}
    assert rep.method == "walk"


def test_walk_bound_upper_triangular_example():
    a = DenseMatrix([[2.0, 1.0], [0.0, 1.0]])
    rep = walk_bound(a, 3, 1)
    # w3(R) = 8 over w1(R) = 2, square root gives 2; sigma is larger.
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    assert rep.sigma == pytest.approx(math.sqrt(3 + math.sqrt(5)), abs=1e-9)
    assert not rep.tight


def test_walk_bound_rejects_even_orders(e1):
    for p, r in ((4, 1), (3, 2), (2, 1)):
        with pytest.raises(PreconditionError):
            walk_bound(e1, p, r)


def test_walk_bound_rejects_bad_order_pairs(e1):
    with pytest.raises(PreconditionError):
        walk_bound(e1, 3, 3)
    with pytest.raises(PreconditionError):
        walk_bound(e1, 1, 3)


def test_walk_bound_requires_scalar(c2):
    with pytest.raises(NotScalarError):
        walk_bound(c2, 3, 1)


def test_even_orders_really_can_overshoot():
    # One row of two ones: sigma = sqrt(2) but the order-2/1 ratio is 2.
    # This is why the public bound refuses even orders.
    a = DenseMatrix([[1.0, 1.0]])
    sigma = math.sqrt(2.0)
    table = walk_table(a, 2)
    value = float(table.row_total(2).real / table.row_total(1).real)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert value > sigma + 0.5


def test_mean_bound_equals_weighted_order_one(rand_nonneg):
    for seed in range(8):
        a = rand_nonneg(seed)
        assert mean_bound(a).value == pytest.approx(weighted_bound(a, 1).value, abs=1e-12)


def test_weighted_bound_on_complex_uses_moduli(c2):
    rep = weighted_bound(c2, 1)
    # |sum| = 4 over sqrt(2*2) = 2.
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    assert rep.tight


def test_mean_bound_e1(e1):
    rep = mean_bound(e1)
    assert rep.value == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert not rep.tight


def test_hwh_matches_weighted_order_two(path3, path4, k23):
    for g in (path3, path4, k23):
        direct = hwh_bound(g).value
        via_weights = weighted_bound(g, 2).value
        assert direct == pytest.approx(via_weights, abs=1e-12)


def test_hwh_path3_tight(path3):
    rep = hwh_bound(path3)
    assert rep.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert rep.tight
    assert rep.certificate is True


def test_hwh_path4_strict(path4):
    rep = hwh_bound(path4)
    assert rep.value == pytest.approx((2 * math.sqrt(2.0) + 2) / 3, abs=1e-12)
    assert rep.sigma == pytest.approx((1 + math.sqrt(5.0)) / 2, abs=1e-9)
    assert not rep.tight
    assert rep.certificate is False


def test_hwh_preconditions():
    with pytest.raises(PreconditionError):
        hwh_bound(DenseMatrix(np.ones((2, 3))))
    with pytest.raises(PreconditionError):
        hwh_bound(DenseMatrix([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        hwh_bound(DenseMatrix([[0.0, -1.0], [-1.0, 0.0]]))
    # A zero row has degree zero, which the degree weighting cannot take.
    with pytest.raises(PreconditionError):
        hwh_bound(DenseMatrix([[1.0, 1.0], [0.0, 0.0]]))


def test_schur_bound_is_an_upper_bound(e1):
    rep = schur_upper_bound(e1)
    assert rep.value == pytest.approx(math.sqrt(2.0 * 3.0), abs=1e-12)
    assert rep.gap >= 0.0


def test_schur_rejects_negative_entries():
    with pytest.raises(PreconditionError):
        schur_upper_bound(DenseMatrix([[1.0, -1.0]]))


@settings(deadline=None, derandomize=True, max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 5_000))
def test_bound_sandwich_on_random_nonneg(rand_nonneg, seed):
    a = rand_nonneg(seed, max_dim=7)
    sigma = float(singular_values(a)[0])
    slack = 1e-9 * max(1.0, sigma)
    lowers = [mean_bound(a).value, weighted_bound(a, 2).value]
    if a.data.real.sum() > 0:
        lowers.append(walk_bound(a, 3, 1).value)
        lowers.append(walk_bound(a, 5, 3).value)
    for value in lowers:
        assert value <= sigma + slack
    assert schur_upper_bound(a).value >= sigma - slack


@settings(deadline=None, derandomize=True, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 5_000))
def test_weighted_bound_valid_on_random_complex(rand_complex, seed):
    a = rand_complex(seed, max_dim=7)
    sigma = float(singular_values(a)[0])
    for r in (1, 2, 3):
        assert weighted_bound(a, r).value <= sigma + 1e-9 * max(1.0, sigma)


@pytest.mark.parametrize("seed", [6, 14, 19, 37])
def test_tight_flips_at_the_relative_gap(rand_symmetric, seed):
    # Each bound is judged on A / 2^e: tight holds at tol equal to its
    # gap relative to sigma there, and not one float below.
    a = rand_symmetric(seed)
    e = Analysis(a).exponent
    for bound in (walk_bound, weighted_bound, mean_bound, hwh_bound, schur_upper_bound):
        rep = bound(Analysis(a))
        tol = float(relative_gap(abs(np.ldexp(rep.gap, -e)), np.ldexp(rep.sigma, -e)))
        assert tol > 0.0
        assert bound(Analysis(a, tol)).tight
        assert not bound(Analysis(a, float(np.nextafter(tol, 0.0)))).tight
