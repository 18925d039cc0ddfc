import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walkbound import (
    DenseMatrix,
    PreconditionError,
    WalkScaleError,
    graph_walk_count_equivalence,
    sigma_ratio_estimate,
    walk_identity_residual,
    walk_table,
)

# Weight tables for the 3x4 example, worked out by hand from the
# recursion and frozen here.
E1_ROWS = {1: [1, 1, 1], 2: [2, 2, 2], 3: [4, 4, 4], 5: [16, 16, 16]}
E1_COLS = {1: [1, 1, 1, 1], 2: [3, 1, 1, 1], 3: [6, 2, 2, 2], 5: [24, 8, 8, 8]}


def test_e1_row_and_col_weights(e1):
    t = walk_table(e1, 5)
    for s, expect in E1_ROWS.items():
        assert t.row(s).real.tolist() == expect
        assert t.row(s).imag.tolist() == [0.0] * 3
    for s, expect in E1_COLS.items():
        assert t.col(s).real.tolist() == expect
    assert t.row_total(1) == 3
    assert t.row_total(3) == 12
    assert t.row_total(5) == 48
    assert t.col_total(1) == 4
    assert t.col_total(3) == 12
    assert t.col_total(5) == 48


def test_numpy_integer_orders_are_accepted(e1):
    t = walk_table(e1, np.int64(5))
    assert t.order == 5
    assert t.row(np.int32(3)).tolist() == t.row(3).tolist()
    assert sigma_ratio_estimate(e1, np.int64(1), np.uint8(20)) == sigma_ratio_estimate(e1, 1, 20)


def test_c2_totals(c2):
    t = walk_table(c2, 3)
    assert t.row_total(1) == 2
    assert t.col_total(1) == 2
    assert t.row_total(2) == 4
    assert t.col_total(2) == 4
    assert t.row_total(3) == 8


def test_table_keeps_the_matrix_dtype(e1, c2):
    for a, dtype in ((e1, np.float64), (DenseMatrix(-e1.data), np.float64),
                     (c2, np.complex128)):
        t = walk_table(a, 4)
        for arr in (t.row_weights, t.col_weights, t.row_totals, t.col_totals):
            assert arr.dtype == dtype


def test_order_one_is_all_ones(rand_complex):
    t = walk_table(rand_complex(11), 1)
    assert np.all(t.row(1) == 1.0)
    assert np.all(t.col(1) == 1.0)


def test_order_two_is_plain_sums(e1):
    t = walk_table(e1, 2)
    assert t.row(2).real.tolist() == [2.0, 2.0, 2.0]
    assert t.col(2).real.tolist() == [3.0, 1.0, 1.0, 1.0]


def test_out_of_range_orders(e1):
    t = walk_table(e1, 3)
    for bad in (0, 4, -1):
        with pytest.raises(PreconditionError):
            t.row(bad)
        with pytest.raises(PreconditionError):
            t.col(bad)
    with pytest.raises(PreconditionError):
        walk_table(e1, 0)


def test_recursion_uses_plain_transpose(c2):
    # Complex weights propagate without conjugation: order 3 on the rows
    # equals A (A^T w1), not A (A^H w1).
    t = walk_table(c2, 3)
    a = c2.data
    expect = a @ (a.T @ np.ones(2, dtype=complex))
    assert np.allclose(t.row(3), expect)


def test_odd_row_weights_match_gram_powers(rand_nonneg):
    for seed in range(8):
        a = rand_nonneg(seed)
        g = (a.data @ a.data.T).real
        t = walk_table(a, 7)
        vec = np.ones(a.m)
        for r in range(4):
            assert np.allclose(t.row(2 * r + 1).real, vec, rtol=1e-12, atol=1e-12)
            assert abs(t.row_total(2 * r + 1).real - vec.sum()) <= 1e-10 * max(1.0, vec.sum())
            vec = g @ vec


# The factory fixture holds no state between examples, so reusing it
# under @given is safe despite the scope health check.
@settings(deadline=None, derandomize=True, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 5_000), r=st.integers(0, 3), s=st.integers(0, 3))
def test_pairing_identity_on_random_nonneg(rand_nonneg, seed, r, s):
    a = rand_nonneg(seed, max_dim=6)
    assert walk_identity_residual(a, r, s) <= 1e-10


def test_pairing_identity_rejects_complex(c2):
    with pytest.raises(PreconditionError):
        walk_identity_residual(c2, 1, 1)


def test_graph_walk_counts_path3(path3):
    for s in range(1, 6):
        assert graph_walk_count_equivalence(path3, s)


def test_graph_walk_counts_small_graphs(path4, k23):
    for g in (path4, k23):
        for s in range(1, 5):
            assert graph_walk_count_equivalence(g, s)


def test_graph_walk_counts_reject_nonsymmetric():
    g = DenseMatrix([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError):
        graph_walk_count_equivalence(g, 2)


def test_graph_walk_counts_reject_weighted():
    g = DenseMatrix([[0, 2], [2, 0]])
    with pytest.raises(PreconditionError):
        graph_walk_count_equivalence(g, 2)


def test_overflow_raises_scale_error():
    # Level s holds (4e80)^(s-1), which first passes 1e300 at order 5;
    # the levels after it, inf and then NaN, must not move the report.
    a = DenseMatrix(np.full((4, 4), 1e80))
    with pytest.raises(WalkScaleError, match=r"exceeded 1e\+300 at order 5:"):
        walk_table(a, 9)


def test_weights_grow_monotonically_for_positive(rand_nonneg):
    a = rand_nonneg(3, max_dim=5, density=1.0)
    t = walk_table(a, 6)
    # With a strictly positive matrix every next total dominates after
    # rescaling by the smallest entry; the raw totals at least never shrink
    # once entries are >= machine-positive.
    totals = [abs(t.row_total(s)) for s in range(1, 7)]
    assert all(x > 0 for x in totals)
