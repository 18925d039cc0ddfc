import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from walkbound import (
    ConvergenceError,
    DenseMatrix,
    PreconditionError,
    SparseMatrix,
    WalkScaleError,
    hermitian_eigen,
    largest_singular,
    sigma_ratio_estimate,
    singular_values,
)
from walkbound.analysis import Analysis
from walkbound.walks import walk_table


def test_e1_sigma(e1):
    res = largest_singular(e1)
    assert abs(res.sigma - 2.0) < 1e-10
    assert res.residual <= 1e-12 * max(1.0, res.sigma)
    assert res.left.shape == (3,) and res.right.shape == (4,)
    assert abs(np.linalg.norm(res.left) - 1.0) < 1e-12
    assert abs(np.linalg.norm(res.right) - 1.0) < 1e-12


def test_c2_sigma(c2):
    assert abs(largest_singular(c2).sigma - 2.0) < 1e-10


def test_singular_pair_maps_both_ways(e1):
    res = largest_singular(e1)
    a = e1.data
    assert np.linalg.norm(a @ res.right - res.sigma * res.left) < 1e-10
    assert np.linalg.norm(a.conj().T @ res.left - res.sigma * res.right) < 1e-10


def test_lanczos_bases_grow_with_the_steps():
    # Bases of cap = min(max_iter, m, n) rows would take cap * (m + n) * 8
    # bytes, 400 MB here, for a solve of a few dozen steps.
    m = n = 5000
    rng = np.random.default_rng(0)
    rows, cols = rng.integers(0, m, 25_000), rng.integers(0, n, 25_000)
    a = SparseMatrix(scipy.sparse.coo_array((rng.uniform(size=rows.size), (rows, cols)),
                                            shape=(m, n)))
    tracemalloc.start()
    try:
        res = largest_singular(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations > 32  # past the first doubling
    assert peak < min(10_000, m, n) * (m + n) * 8 / 20


def test_zero_matrix():
    res = largest_singular(DenseMatrix(np.zeros((3, 2))))
    assert res.sigma == 0.0
    assert singular_values(DenseMatrix(np.zeros((3, 2)))).tolist() == [0.0, 0.0]


def test_sigma_invariant_under_conjugate_transpose(rand_complex):
    for seed in range(6):
        a = rand_complex(seed)
        b = DenseMatrix(a.data.conj().T)
        assert abs(largest_singular(a).sigma - largest_singular(b).sigma) < 1e-9


def test_sigma_scales_linearly(e1):
    scaled = DenseMatrix(3.5 * e1.data)
    assert abs(largest_singular(scaled).sigma - 7.0) < 1e-9


def test_power_iteration_agrees_with_eigensolver(rand_complex, rand_nonneg):
    for seed in range(10):
        a = rand_complex(seed) if seed % 2 else rand_nonneg(seed)
        direct = largest_singular(a).sigma
        via_eig = singular_values(a)[0]
        assert abs(direct - via_eig) <= 1e-9 * max(1.0, via_eig)


def test_singular_values_match_numpy_svd(rand_complex):
    a = rand_complex(17, max_dim=6)
    ours = singular_values(a)
    ref = np.linalg.svd(a.data, compute_uv=False)
    assert np.allclose(ours, ref, atol=1e-10)


def test_singular_values_vanish_on_a_rank_deficient_block_matrix():
    # Permuted block diagonal of rank 1, 2 and 1: five of the nine
    # singular values are exactly zero.  Square roots of Gram eigenvalues
    # leave about sqrt(eps) * sigma there; the SVD leaves a few eps.
    rng = np.random.default_rng(3)
    blocks = [np.outer(rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 5)),
              rng.uniform(size=(3, 2)) @ rng.uniform(size=(2, 3)),
              np.ones((2, 4))]
    x = np.zeros((9, 12))
    i = j = 0
    for b in blocks:
        x[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    x = x[rng.permutation(9)][:, rng.permutation(12)]
    for a in (DenseMatrix(x), DenseMatrix(x.T), DenseMatrix(1j * x)):
        vals = singular_values(a)
        assert vals.shape == (9,)
        assert np.all(vals[4:] <= 1e-14 * vals[0])
        assert vals[3] > 1e-3 * vals[0]


def test_convergence_error_carries_best_guess():
    # 60 x 60 is above the dense SVD cutoff; 3 Lanczos steps cannot
    # resolve a top gap of 1e-3.
    a = DenseMatrix(np.diag(np.r_[1.0, 0.999, np.linspace(0.5, 0.1, 58)]))
    with pytest.raises(ConvergenceError) as exc:
        largest_singular(a, max_iter=3)
    best = exc.value.best
    assert best is not None
    assert best.iterations == 3
    assert 0.9 < best.sigma < 1.1


def test_hermitian_eigen_descending():
    h = DenseMatrix(np.diag([1.0, 5.0, 3.0]))
    pairs = hermitian_eigen(h)
    values = [v for v, _ in pairs]
    assert values == sorted(values, reverse=True)
    assert abs(values[0] - 5.0) < 1e-12
    top = pairs[0][1]
    assert abs(abs(top[1]) - 1.0) < 1e-12


def test_hermitian_eigen_rejects_nonhermitian():
    with pytest.raises(PreconditionError):
        hermitian_eigen(DenseMatrix([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        hermitian_eigen(DenseMatrix(np.ones((2, 3))))


def test_ratio_estimate_positive_matrix_converges():
    rng = np.random.default_rng(123)
    a = DenseMatrix(rng.uniform(0.1, 1.0, size=(5, 5)))
    sigma = singular_values(a)[0]
    est = sigma_ratio_estimate(a, s=1, r_max=60)
    assert not est.degenerate
    assert est.limit is not None
    assert abs(est.limit - sigma**2) <= 1e-6 * sigma**2
    # The ratio sequence approaches from below for a positive start.
    assert est.ratios[-1] <= sigma**2 * (1 + 1e-9)


def test_ratio_estimate_degenerate_witness():
    # The top left singular vector is orthogonal to the all-ones vector,
    # so ratio convergence to sigma^2 must be reported as unattainable.
    a = DenseMatrix([[1.0, -1.0], [-1.0, 1.0]])
    est = sigma_ratio_estimate(a, s=1, r_max=40)
    assert est.degenerate
    assert est.limit is None


def test_ratio_estimate_near_orthogonal_ones_is_degenerate():
    # A = 1.2 u1 u1^T + u2 u2^T with u1 tilted 2e-10 off (1, -1) / sqrt(2):
    # the all-ones vector projects 2.8e-10 onto u1, so 60 steps leave the
    # ratios settled near 1, far below sigma^2 = 1.44.
    t = -math.pi / 4 + 2e-10
    u1 = np.array([math.cos(t), math.sin(t)])
    u2 = np.array([-math.sin(t), math.cos(t)])
    assert abs(u1.sum()) < 3e-10
    est = sigma_ratio_estimate(DenseMatrix(1.2 * np.outer(u1, u1) + np.outer(u2, u2)))
    assert abs(est.ratios[-1] - est.ratios[-2]) < 1e-9 * est.ratios[-1]
    assert est.ratios[-1] == pytest.approx(1.0, abs=1e-9)
    assert est.degenerate
    assert est.limit is None


def test_ratio_estimate_settling_below_sigma_is_degenerate():
    # The all-ones vector is an eigenvector to 1, while sigma^2 = 9.
    est = sigma_ratio_estimate(DenseMatrix([[2.0, -1.0], [-1.0, 2.0]]), s=1, r_max=40)
    assert all(r == pytest.approx(1.0, abs=1e-12) for r in est.ratios)
    assert est.degenerate
    assert est.limit is None


@pytest.mark.parametrize("k", [-250, -150, 150, 240])
def test_ratio_estimate_scales_exactly_by_powers_of_two(k):
    a = np.random.default_rng(9).uniform(0.1, 1.0, size=(5, 4))
    est = sigma_ratio_estimate(DenseMatrix(a), s=2, r_max=20)
    scaled = sigma_ratio_estimate(DenseMatrix(np.ldexp(a, k)), s=2, r_max=20)
    assert scaled.ratios == tuple(np.ldexp(est.ratios, 4 * k))
    assert scaled.max_ratios == tuple(np.ldexp(est.max_ratios, 4 * k))
    assert scaled.limit == np.ldexp(est.limit, 4 * k)
    assert not scaled.degenerate


def test_ratio_estimate_out_of_range_raises_walk_scale_error():
    # sigma^2 of the scaled matrix is 4e400, past the float64 range.
    with pytest.raises(WalkScaleError):
        sigma_ratio_estimate(DenseMatrix(1e200 * np.ones((2, 2))))


def test_ratio_estimate_reads_the_limit_past_float64_levels():
    # Order-s weights grow like sigma^(s-1), sigma about 300 here, so the
    # walk table of A / 2^e passes 1e300 at order 123, which r_max = 60
    # asks for.  The estimator's chain, each level divided by the power of
    # two nearest sigma^(2t), stays in range.
    a = DenseMatrix(np.random.default_rng(0).uniform(0.0, 1.0, size=(600, 600)))
    with pytest.raises(WalkScaleError) as info:
        walk_table(Analysis(a).a, 123)
    assert str(info.value) == (
        "walk weights exceeded 1e+300 at order 123: that order is beyond "
        "float64 for this matrix"
    )
    est = sigma_ratio_estimate(a)
    assert not est.degenerate
    assert abs(est.limit - largest_singular(a).sigma ** 2) <= 1e-6


def test_ratio_estimate_high_s_past_float64_on_the_scaled_matrix():
    # On A / 2^e sigma is about 20, so sigma^300 is past float64 there,
    # while in the input's units, A = x / 32, it is about 1e-61.
    a = DenseMatrix(np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 40)) / 32)
    est = sigma_ratio_estimate(a, s=150, r_max=8)
    sigma2s = largest_singular(a).sigma ** 300
    assert not est.degenerate
    assert abs(est.limit - sigma2s) <= 1e-6 * sigma2s


def test_ratio_estimate_builds_no_walk_table(record_calls):
    tables = []
    record_calls(lambda name, args, _: tables.append(args), ("walks", "walk_table"))
    sigma_ratio_estimate(DenseMatrix(np.random.default_rng(1).uniform(size=(6, 5))), 2, 30)
    assert tables == []


def _table_estimate(a, s, r_max):
    """(ratios, max_ratios, degenerate, limit) read off the odd row levels
    of one walk table of A / 2^e, with thresholds in powers of sigma^2."""
    ctx = Analysis(a)
    sigma = largest_singular(ctx.a).sigma
    table = walk_table(ctx.a, 2 * r_max + 2 * s + 1)
    totals = table.row_totals[::2]
    weights = table.row_weights[::2]
    pows = np.cumprod(np.r_[1.0, np.full(r_max, sigma * sigma)])
    collapsed = np.flatnonzero(totals[:r_max + 1] <= 1e-12 * ctx.a.m * pows)
    stop = collapsed[0] if collapsed.size else r_max + 1
    ratios = (totals[s:s + stop] / totals[:stop]).tolist()
    usable = weights[:stop] > 1e-12 * pows[:stop, None]
    quotients = np.divide(weights[s:s + stop], weights[:stop], where=usable,
                          out=np.full(usable.shape, -np.inf))
    max_ratios = quotients.max(axis=1)[usable.any(axis=1)].tolist()
    degenerate = bool(collapsed.size) and sigma > 0.0
    limit = 0.0 if sigma == 0.0 else None
    if (sigma > 0.0 and not degenerate and len(ratios) >= 2
            and abs(ratios[-1] - ratios[-2]) < 1e-9 * abs(ratios[-1])):
        if abs(ratios[-1] / sigma ** (2 * s) - 1.0) <= 1e-6:
            limit = ratios[-1]
        else:
            degenerate = True

    def unscaled(xs):
        return tuple(math.ldexp(x, 2 * s * ctx.exponent) for x in xs)

    return (unscaled(ratios), unscaled(max_ratios), degenerate,
            None if limit is None else unscaled([limit])[0])


def test_ratio_estimate_is_the_table_estimate_exactly():
    # Every division of the chain is by a power of two, so each ratio,
    # maximum, limit and verdict has the bits of the table's.
    limits = degenerates = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 13, size=2)
        x = rng.uniform(-1.0, 1.0 if seed % 3 else 0.2, size=(m, n))
        x *= rng.uniform(size=(m, n)) < 0.8
        if seed % 4 == 0:
            x -= x.mean(axis=0)  # 1^T A is near 0: the denominators collapse
        for k in (-100, 0, 100):
            scaled = np.ldexp(x, k)
            for a in (DenseMatrix(scaled), SparseMatrix(scipy.sparse.csr_array(scaled))):
                for s in (1, 2):
                    for r_max in (4, 30):
                        est = sigma_ratio_estimate(a, s=s, r_max=r_max)
                        want = _table_estimate(a, s, r_max)
                        assert (est.ratios, est.max_ratios, est.degenerate,
                                est.limit) == want, (seed, k, s, r_max)
                        limits += est.limit is not None
                        degenerates += est.degenerate
    assert limits and degenerates


def test_ratio_estimate_identity_is_flat():
    est = sigma_ratio_estimate(DenseMatrix(np.eye(3)), s=1, r_max=10)
    assert not est.degenerate
    assert est.limit == pytest.approx(1.0, abs=1e-12)
    assert all(abs(r - 1.0) < 1e-12 for r in est.ratios)


def test_ratio_estimate_rejects_complex(c2, record_calls):
    solves = []
    record_calls(lambda name, args, _: solves.append(args), ("spectral", "largest_singular"))
    for a in (c2, Analysis(c2)):
        with pytest.raises(PreconditionError, match="defined for real matrices"):
            sigma_ratio_estimate(a)
    assert solves == []  # refused before any solve


def test_ratio_estimate_zero_matrix():
    est = sigma_ratio_estimate(DenseMatrix(np.zeros((2, 2))), s=1, r_max=5)
    assert est.limit == 0.0


def test_max_ratio_dominates_aggregate():
    rng = np.random.default_rng(7)
    a = DenseMatrix(rng.uniform(0.1, 1.0, size=(4, 6)))
    est = sigma_ratio_estimate(a, s=1, r_max=20)
    for agg, mx in zip(est.ratios, est.max_ratios):
        assert mx >= agg - 1e-9 * max(1.0, abs(agg))


def _rotated(spectrum, seed=0):
    """A square matrix with the given singular values, randomly rotated."""
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DenseMatrix((q1 * spectrum) @ q2.T)


@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_near_tie_spectra_converge(gap):
    rest = 0.5 * np.random.default_rng(1).uniform(size=297)
    for a in (DenseMatrix(np.diag([1.0, 1.0 - gap, 0.5])),
              _rotated(np.r_[1.0, 1.0 - gap, 0.5, rest])):
        res = largest_singular(a)
        assert res.residual <= 1e-12 * res.sigma
        assert abs(res.sigma - singular_values(a)[0]) <= 1e-12 * res.sigma
        assert res.iterations <= 62


def test_rank_one_exhausts_krylov_space_at_once():
    res = largest_singular(DenseMatrix(np.ones((140, 100))))
    assert res.iterations <= 2
    assert abs(res.sigma - math.sqrt(140 * 100)) <= 1e-12 * res.sigma


@pytest.mark.parametrize("shape", [(7, 5), (70, 60)])
def test_power_of_two_scaling_is_exact(shape):
    # One shape per route: dense SVD and Lanczos.
    a = np.random.default_rng(3).uniform(size=shape)
    sigma = largest_singular(DenseMatrix(a)).sigma
    for k in (600, -600):
        assert largest_singular(DenseMatrix(2.0**k * a)).sigma == 2.0**k * sigma


@pytest.mark.parametrize("shape", [(7, 5), (70, 60)])
def test_extreme_scales_keep_sigma(shape):
    a = np.random.default_rng(4).uniform(size=shape)
    sigma = largest_singular(DenseMatrix(a)).sigma
    for c in (1e-160, 1e150, 1e200):
        scaled = largest_singular(DenseMatrix(c * a)).sigma
        assert abs(scaled - c * sigma) <= 1e-12 * c * sigma


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 80), (80, 1), (60, 50)])
def test_thin_and_zero_shapes(shape):
    a = np.random.default_rng(5).standard_normal(shape)
    assert largest_singular(DenseMatrix(a)).sigma == pytest.approx(
        np.linalg.norm(a, 2), rel=1e-12
    )
    zero = largest_singular(DenseMatrix(np.zeros(shape)))
    assert zero.sigma == 0.0 and zero.residual == 0.0


def test_start_vector_in_the_nullspace_restarts():
    # At odd n the start vector is symmetric under reversal and each row
    # of I - J (J the reversal) is antisymmetric, so A v1 = 0 exactly.
    n = 61
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = 1.0
    a[np.arange(n), n - 1 - np.arange(n)] -= 1.0
    res = largest_singular(DenseMatrix(a))
    assert res.sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
