import math

import numpy as np
import pytest

from walkbound import DenseMatrix, GeneratorError, GeneratorSpec, certify, classify, generate
from walkbound.gen import KINDS


def test_same_seed_same_matrix():
    spec = GeneratorSpec(kind="random_nonneg", shape=(5, 7), density=0.6, seed=42)
    assert generate(spec) == generate(spec)


def test_different_seed_differs():
    a = generate(GeneratorSpec(kind="random_nonneg", shape=(5, 7), seed=1))
    b = generate(GeneratorSpec(kind="random_nonneg", shape=(5, 7), seed=2))
    assert a != b


def test_every_kind_certifies():
    specs = [
        GeneratorSpec(kind="random_nonneg", shape=(4, 6), density=0.5, seed=3),
        GeneratorSpec(kind="random_complex", shape=(3, 3), seed=4),
        GeneratorSpec(kind="regular", shape=(4, 4), seed=5),
        GeneratorSpec(kind="regular", shape=(6, 3), seed=6),
        GeneratorSpec(kind="regular", shape=(3, 6), seed=7),
        GeneratorSpec(kind="regular", shape=(5, 3), seed=8),
        GeneratorSpec(kind="almost_regular", seed=9),
        GeneratorSpec(kind="block_diag", seed=10, params={"blocks": [(2, 2), (3, 3)]}),
        GeneratorSpec(kind="graph", params={"name": "cycle", "n": 6}),
        GeneratorSpec(kind="paper_example", params={"which": "E1"}),
        GeneratorSpec(kind="paper_example", params={"which": "C2"}),
    ]
    for spec in specs:
        matrix = generate(spec)
        assert certify(spec, matrix), spec


def test_kind_list_is_exhaustive():
    assert set(KINDS) == {
        "random_nonneg",
        "random_complex",
        "regular",
        "almost_regular",
        "block_diag",
        "graph",
        "paper_example",
    }


def test_regular_output_is_regular_every_shape():
    for m, n in ((4, 4), (6, 2), (2, 6), (5, 3), (3, 5), (1, 4)):
        a = generate(GeneratorSpec(kind="regular", shape=(m, n), seed=m * 10 + n))
        rep = classify(a)
        assert rep.is_regular, (m, n)


def test_almost_regular_default_is_w_star(w_star):
    a = generate(GeneratorSpec(kind="almost_regular", seed=0))
    assert np.allclose(a.data, w_star.data, atol=1e-12)
    rep = classify(a)
    assert rep.is_almost_regular and not rep.is_regular


def test_almost_regular_hits_target_sigma():
    a = generate(
        GeneratorSpec(
            kind="almost_regular",
            seed=1,
            params={"blocks": [(2, 3), (2, 2)], "target_sigma": 5.0},
        )
    )
    rep = classify(a)
    assert rep.is_almost_regular
    for comp in rep.per_component:
        assert comp.sigma == pytest.approx(5.0, abs=1e-8)


def test_graph_kinds():
    path = generate(GeneratorSpec(kind="graph", params={"name": "path", "n": 4}))
    assert path.shape == (4, 4)
    assert path.data.real.sum() == 6.0  # three undirected edges
    star = generate(GeneratorSpec(kind="graph", params={"name": "star", "n": 5}))
    assert star.data.real[0].sum() == 4.0
    kab = generate(
        GeneratorSpec(kind="graph", params={"name": "complete_bipartite", "a": 2, "b": 3})
    )
    assert kab.shape == (5, 5)
    assert kab.data.real.sum() == 12.0
    complete = generate(GeneratorSpec(kind="graph", params={"name": "complete", "n": 4}))
    assert complete.data.real.sum() == 12.0


@pytest.mark.parametrize("params", [
    {"name": "path", "n": 3, "a": 3, "b": 4},
    {"name": "cycle", "b": 4},
    {"name": "complete_bipartite", "n": 5},
])
def test_graph_sizes_must_fit_the_name(params):
    with pytest.raises(GeneratorError, match="takes the size"):
        generate(GeneratorSpec(kind="graph", params=params))


@pytest.mark.parametrize("params, message", [
    ({"name": "complete_bipartite", "a": -1, "b": 3},
     "graph size a must be a non-negative integer, got -1"),
    ({"name": "complete_bipartite", "a": 2, "b": -1},
     "graph size b must be a non-negative integer, got -1"),
    ({"name": "complete_bipartite", "a": 0, "b": 0}, "graph needs at least one vertex"),
    ({"name": "complete_bipartite", "a": 2.5, "b": 3},
     "graph size a must be a non-negative integer, got 2.5"),
    ({"name": "complete_bipartite", "a": 2, "b": True},
     "graph size b must be a non-negative integer, got True"),
    ({"name": "path", "n": 3.7}, "graph size n must be a non-negative integer, got 3.7"),
    ({"name": "star", "n": "4"}, "graph size n must be a non-negative integer, got '4'"),
    ({"name": "path", "n": -2}, "graph size n must be a non-negative integer, got -2"),
])
def test_graph_sizes_must_be_non_negative_integers(params, message):
    with pytest.raises(GeneratorError) as exc:
        generate(GeneratorSpec(kind="graph", params=params))
    assert str(exc.value) == message


def test_complete_bipartite_with_an_empty_side_is_edgeless():
    for a, b in ((0, 3), (np.int64(3), np.int64(0))):
        g = generate(GeneratorSpec(kind="graph", params={"name": "complete_bipartite",
                                                         "a": a, "b": b}))
        assert g == DenseMatrix(np.zeros((3, 3)))


@pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -2.0])
def test_target_sigma_must_be_finite_and_positive(target):
    with pytest.raises(GeneratorError, match="^target_sigma must be finite and positive$"):
        generate(GeneratorSpec(kind="almost_regular", params={"target_sigma": target}))


def test_paper_examples_exact(e1, c2):
    assert generate(GeneratorSpec(kind="paper_example", params={"which": "E1"})) == e1
    assert generate(GeneratorSpec(kind="paper_example", params={"which": "C2"})) == c2


def test_unknown_kind_rejected():
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec(kind="mystery"))


def test_bad_density_rejected():
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec(kind="random_nonneg", shape=(2, 2), density=1.5))


def test_negative_seed_rejected():
    with pytest.raises(GeneratorError, match="^seed must be non-negative, got -1$"):
        generate(GeneratorSpec(kind="random_nonneg", shape=(2, 2), seed=-1))


@pytest.mark.parametrize("fields, message", [
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"density": "0.5"}, "density must sit in [0, 1], got '0.5'"),
    ({"density": None}, "density must sit in [0, 1], got None"),
    ({"shape": (2,)}, "shape must be two positive integers, got (2,)"),
    ({"shape": (2.5, 2)}, "shape must be two positive integers, got (2.5, 2)"),
])
def test_malformed_spec_fields_rejected(fields, message):
    spec = GeneratorSpec(**{"kind": "random_nonneg", "shape": (2, 2), **fields})
    with pytest.raises(GeneratorError) as exc:
        generate(spec)
    assert str(exc.value) == message


def test_density_thins():
    dense = generate(GeneratorSpec(kind="random_nonneg", shape=(20, 20), density=1.0, seed=3))
    sparse = generate(GeneratorSpec(kind="random_nonneg", shape=(20, 20), density=0.2, seed=3))
    assert (sparse.data.real > 0).sum() < (dense.data.real > 0).sum()
