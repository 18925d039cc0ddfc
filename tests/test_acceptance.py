"""Acceptance gate: one test per shipped criterion.

Each test wraps its asserts in the `acceptance` recorder so the run ends
with a one-line verdict per criterion in the terminal summary.  The
numbered tolerances and matrix counts here are contractual; loosening
them is not an option.
"""

import json
import math
import time

import numpy as np
import pytest

from walkbound import (
    DenseMatrix,
    GeneratorSpec,
    certify_theorem2,
    certify_theorem2_1,
    certify_theorem3,
    certify_theorem4,
    characterize_pseudo_regular,
    classify,
    connectivity_via_powers,
    decompose,
    detect_scalar,
    generate,
    hwh_bound,
    hwh_equality_certificate,
    largest_singular,
    mean_bound,
    relaxed_pseudo_regular,
    schur_upper_bound,
    sigma_ratio_estimate,
    singular_multiset_check,
    singular_values,
    walk_bound,
    walk_identity_residual,
    walk_table,
    weighted_bound,
    write_matrix,
)
from walkbound.analysis import Analysis
from walkbound.cli import main as cli_main


def _random_nonneg(seed, max_dim, density=0.7):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    vals = rng.uniform(0.0, 1.0, size=(m, n))
    vals[rng.uniform(size=(m, n)) >= density] = 0.0
    return DenseMatrix(vals)


def _random_complex(seed, max_dim):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    return DenseMatrix(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))


def test_criterion_1_worked_example(acceptance, e1):
    with acceptance(1, "worked 3x4 example: weights, sigma, classes, bounds"):
        start = time.perf_counter()
        t = walk_table(e1, 5)
        assert t.row(2).real.tolist() == [2, 2, 2]
        assert t.row(3).real.tolist() == [4, 4, 4]
        assert t.row(5).real.tolist() == [16, 16, 16]
        assert t.col(2).real.tolist() == [3, 1, 1, 1]
        assert t.col(3).real.tolist() == [6, 2, 2, 2]
        assert t.col(5).real.tolist() == [24, 8, 8, 8]
        assert t.row_total(3) == 12 and t.row_total(5) == 48
        assert t.col_total(1) == 4 and t.col_total(3) == 12

        assert abs(largest_singular(e1).sigma - 2.0) <= 1e-10

        rep = classify(e1)
        assert rep.is_pseudo_regular and not rep.is_regular and not rep.is_almost_regular
        assert abs(rep.pseudo_lambda - 4.0) <= 1e-10

        wb = walk_bound(e1, 3, 1)
        assert abs(wb.value - 2.0) <= 1e-10 and wb.tight
        mb = mean_bound(e1)
        assert abs(mb.value - math.sqrt(3.0)) <= 1e-10 and not mb.tight

        cert = certify_theorem2_1(e1, r=1, s=1)
        assert cert.details["row_gap"] <= 1e-10
        assert cert.details["col_gap"] > 1e-2 and not cert.holds

        assert time.perf_counter() - start < 1.0


def test_criterion_2_complex_example(acceptance, c2):
    with acceptance(2, "complex 2x2 example matches its table to 1e-10"):
        assert not detect_scalar(c2).is_scalar
        t = walk_table(c2, 3)
        assert abs(complex(np.sum(c2.data)) - 4.0) <= 1e-10
        assert abs(t.row_total(1) - 2.0) <= 1e-10
        assert abs(t.col_total(1) - 2.0) <= 1e-10
        assert abs(t.row_total(2) - 4.0) <= 1e-10
        assert abs(t.col_total(2) - 4.0) <= 1e-10
        assert abs(t.row_total(3) - 8.0) <= 1e-10
        assert abs(largest_singular(c2).sigma - 2.0) <= 1e-10

        assert certify_theorem2(c2, s=1, r=0).gap <= 1e-10
        assert certify_theorem3(c2, r=2).details["equality_gap"] <= 1e-10
        assert certify_theorem4(c2).gap <= 1e-10


def test_criterion_3_pairing_identity(acceptance):
    with acceptance(3, "pairing identity and Gram-power tables on 100 matrices"):
        for seed in range(100):
            a = _random_nonneg(seed, 8)
            rng = np.random.default_rng(10_000 + seed)
            r = int(rng.integers(0, 4))
            s = int(rng.integers(0, 4))
            assert walk_identity_residual(a, r, s) <= 1e-10

            gram = (a.data @ a.data.T).real
            t = walk_table(a, 2 * r + 1)
            expect = np.linalg.matrix_power(gram, r) @ np.ones(a.m)
            got = t.row(2 * r + 1).real
            scale = max(1.0, float(np.abs(expect).max()))
            assert float(np.abs(got - expect).max()) <= 1e-10 * scale
            assert abs(t.row_total(2 * r + 1).real - expect.sum()) <= 1e-10 * max(
                1.0, abs(expect.sum())
            )


def test_criterion_4_bounds_never_exceed_sigma(acceptance):
    with acceptance(4, "bound validity sweep: 200 nonneg + 200 complex matrices"):
        walk_pairs = [
            (p, r)
            for r in (1, 3, 5, 7)
            for p in (3, 5, 7, 9)
            if p > r
        ]
        for seed in range(200):
            a = _random_nonneg(seed, 12)
            ctx = Analysis(a)
            sigma = float(singular_values(a)[0])
            slack = 1e-9 * max(1.0, sigma)
            for p, r in walk_pairs:
                assert walk_bound(ctx, p, r).value <= sigma + slack
            for r in (1, 2, 3):
                assert weighted_bound(ctx, r).value <= sigma + slack
            assert mean_bound(ctx).value <= sigma + slack
            assert schur_upper_bound(ctx).value >= sigma - slack
        for seed in range(200):
            a = _random_complex(seed, 12)
            ctx = Analysis(a)
            sigma = float(singular_values(a)[0])
            slack = 1e-9 * max(1.0, sigma)
            for r in (1, 2, 3):
                assert weighted_bound(ctx, r).value <= sigma + slack
            assert mean_bound(ctx).value <= sigma + slack
        # Symmetric subset for the degree-product bound.
        for seed in range(50):
            rng = np.random.default_rng(50_000 + seed)
            n = int(rng.integers(2, 13))
            half = rng.uniform(0.1, 1.0, size=(n, n))
            a = DenseMatrix((half + half.T) / 2)
            sigma = float(singular_values(a)[0])
            assert hwh_bound(Analysis(a)).value <= sigma + 1e-9 * max(1.0, sigma)


def test_criterion_5_ratio_estimator(acceptance):
    with acceptance(5, "ratio estimator: 50 positive matrices plus degenerate witness"):
        start = time.perf_counter()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            a = DenseMatrix(rng.uniform(0.1, 1.0, size=(m, n)))
            sigma = float(singular_values(a)[0])
            est = sigma_ratio_estimate(a, s=1, r_max=60)
            assert not est.degenerate
            assert est.limit is not None
            assert abs(est.limit - sigma**2) <= 1e-6 * sigma**2

        witness = DenseMatrix([[1.0, -1.0], [-1.0, 1.0]])
        est = sigma_ratio_estimate(witness, s=1, r_max=40)
        assert est.degenerate and est.limit is None
        assert time.perf_counter() - start < 10.0


def test_criterion_6_multiset_merge(acceptance):
    with acceptance(6, "singular values of 30 block sums merge to 1e-8"):
        for seed in range(30):
            rng = np.random.default_rng(200 + seed)
            count = int(rng.integers(2, 5))
            shapes = [
                (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
                for _ in range(count)
            ]
            m = sum(s[0] for s in shapes)
            n = sum(s[1] for s in shapes)
            full = np.zeros((m, n))
            i = j = 0
            for bm, bn in shapes:
                full[i : i + bm, j : j + bn] = rng.uniform(0.1, 1.0, size=(bm, bn))
                i += bm
                j += bn
            rp = rng.permutation(m)
            cp = rng.permutation(n)
            a = DenseMatrix(full[np.ix_(rp, cp)])
            assert singular_multiset_check(a, tol=1e-8)


def test_criterion_7_connectivity_routes_agree(acceptance):
    with acceptance(7, "power reachability equals graph search on 50 matrices"):
        for seed in range(50):
            base = _random_nonneg(seed, 8, density=0.35)
            rng = np.random.default_rng(300 + seed)
            phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            a = DenseMatrix(base.data * phase)
            dec = decompose(a)
            row_comp = {}
            col_comp = {}
            for k, comp in enumerate(dec.components):
                for i in comp.row_indices:
                    row_comp[i] = k
                for j in comp.col_indices:
                    col_comp[j] = k
            for i in range(a.m):
                for j in range(a.n):
                    expected = (
                        i in row_comp and j in col_comp and row_comp[i] == col_comp[j]
                    )
                    assert connectivity_via_powers(a, i, j)[0] == expected


def _theorem_corpus(e1, c2, w_star, path3, path4, k23):
    matrices = [e1, DenseMatrix(e1.data.T.real), c2, w_star, path3, path4, k23]
    matrices.append(DenseMatrix(np.ones((2, 2))))
    matrices.append(DenseMatrix(np.eye(4)))
    two_blocks = np.zeros((3, 3))
    two_blocks[:2, :2] = 1.0
    two_blocks[2, 2] = 1.0
    matrices.append(DenseMatrix(two_blocks))
    two_blocks_matched = two_blocks.copy()
    two_blocks_matched[2, 2] = 2.0
    matrices.append(DenseMatrix(two_blocks_matched))
    for seed in (0, 1, 2):
        matrices.append(
            generate(GeneratorSpec(kind="regular", shape=(4 + seed, 4), seed=seed))
        )
        matrices.append(
            generate(
                GeneratorSpec(
                    kind="almost_regular",
                    seed=seed,
                    params={"blocks": [(2, 2), (1, 2), (2, 3)], "target_sigma": 3.0},
                )
            )
        )
    for seed in range(40):
        matrices.append(_random_nonneg(400 + seed, 7))
    for seed in range(20):
        matrices.append(_random_complex(500 + seed, 7))
    for seed in range(10):
        base = _random_nonneg(600 + seed, 6)
        rng = np.random.default_rng(700 + seed)
        matrices.append(DenseMatrix(base.data * np.exp(1j * rng.uniform(0, 2 * np.pi))))
    return matrices


def test_criterion_8_theorem_suites(acceptance, e1, c2, w_star, path3, path4, k23):
    with acceptance(8, "certificate sweeps report zero implication violations"):
        violations = 0
        for a in _theorem_corpus(e1, c2, w_star, path3, path4, k23):
            if float(np.abs(a.data).max()) == 0.0:
                continue
            scalar = detect_scalar(a).is_scalar
            for s, r in ((1, 0), (2, 0), (1, 1)):
                cert = certify_theorem2(a, s=s, r=r)
                if cert.implied_class_verified is False:
                    violations += 1
            cert = certify_theorem2_1(a, r=1, s=1)
            if cert.implied_class_verified is False:
                violations += 1
            for r in (2, 4):
                cert = certify_theorem3(a, r=r)
                if scalar and not cert.holds:
                    violations += 1
                if cert.implied_class_verified is False:
                    violations += 1
            cert = certify_theorem4(a)
            if cert.implied_class_verified is False:
                violations += 1
            if scalar:
                # Spectral characterization must agree with the defining
                # index-by-index test, and pseudo-regularity must carry to
                # the weight proportionality at every admissible order pair.
                rep = classify(a)
                ch = characterize_pseudo_regular(a)
                if ch.satisfied != rep.is_pseudo_regular:
                    violations += 1
                if rep.is_pseudo_regular:
                    for rr, ss in ((5, 3), (7, 3), (7, 5), (9, 5), (9, 7)):
                        if not relaxed_pseudo_regular(a, rr, ss):
                            violations += 1
            if (
                a.shape[0] == a.shape[1]
                and a.is_real()
                and a.is_nonneg()
                and np.array_equal(a.data, a.data.T)
                and a.data.real.sum(axis=1).min() > 0
            ):
                cert = hwh_equality_certificate(a)
                if cert.implied_class_verified is False:
                    violations += 1
        assert violations == 0


def test_criterion_9_degree_weighted_graphs(acceptance, path3, path4, k23):
    with acceptance(9, "degree-product bound: equality cases and a strict case"):
        p3 = hwh_bound(path3)
        assert abs(p3.value - math.sqrt(2.0)) <= 1e-10
        assert p3.tight and p3.certificate is True
        assert hwh_equality_certificate(path3).holds

        kb = hwh_bound(k23)
        assert abs(kb.value - math.sqrt(6.0)) <= 1e-10
        assert kb.tight and kb.certificate is True
        assert hwh_equality_certificate(k23).holds

        p4 = hwh_bound(path4)
        phi = (1 + math.sqrt(5.0)) / 2
        assert abs(p4.value - (2 * math.sqrt(2.0) + 2) / 3) <= 1e-10
        assert abs(p4.sigma - phi) <= 1e-9
        assert not p4.tight and p4.certificate is False
        assert not hwh_equality_certificate(path4).holds


def test_criterion_10_large_random_ratio(acceptance):
    with acceptance(10, "200x200 coin-flip matrix: mean bound captures 95% of sigma"):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)
        a = DenseMatrix(rng.integers(0, 2, size=(200, 200)).astype(float))
        sigma = float(singular_values(a)[0])
        ratio = mean_bound(Analysis(a)).value / sigma
        assert ratio >= 0.95
        assert time.perf_counter() - start < 30.0


def test_criterion_11_json_determinism(acceptance, tmp_path, e1, c2, w_star):
    with acceptance(11, "analyze --json emits identical bytes on repeat runs"):
        corpus = []
        for name, matrix in (("e1.mtx", e1), ("c2.csv", c2), ("wstar.mtx", w_star)):
            path = tmp_path / name
            write_matrix(path, matrix)
            corpus.append(path)
        for kind, name, seed in (
            ("random_nonneg", "rn.mtx", 31),
            ("random_complex", "rc.csv", 32),
            ("block_diag", "bd.mtx", 33),
        ):
            path = tmp_path / name
            matrix = generate(GeneratorSpec(kind=kind, shape=(6, 5), seed=seed))
            write_matrix(path, matrix)
            corpus.append(path)
        for path in corpus:
            out1 = tmp_path / (path.name + ".r1.json")
            out2 = tmp_path / (path.name + ".r2.json")
            assert cli_main(["analyze", str(path), "--json", "--out", str(out1)]) == 0
            assert cli_main(["analyze", str(path), "--json", "--out", str(out2)]) == 0
            first = out1.read_bytes()
            assert first == out2.read_bytes()
            assert json.loads(first)["schema"] == 1
