import tracemalloc

import numpy as np
import pytest

from relpick import ConfidenceVector, ConfigError, DataError, EmbeddingMatrix, ProbabilityMatrix
from relpick.baselines import (
    covering_radius,
    select_kcenter,
    select_margin,
    select_small_loss,
    select_uniform,
)
from relpick.oracle import random_instance

from conftest import random_unit_rows


def reference_sq_distances(X, sq, centers):
    """The (m, k) squared distances as k-center formed them before it
    reused one buffer: ||x||^2 - 2 x.c + ||c||^2."""
    return sq[:, None] - 2.0 * (X @ X[centers].T) + sq[centers][None, :]


def reference_kcenter(E, s, seed_index=0):
    """Farthest-point-first on ``reference_sq_distances``."""
    X = E.data.astype(np.float64)
    sq = np.einsum("ij,ij->i", X, X)
    order, selected = [seed_index], np.zeros(E.m, dtype=bool)
    selected[seed_index] = True
    for _ in range(s - 1):
        cover = np.maximum(reference_sq_distances(X, sq, order).min(axis=1), 0.0)
        cover[selected] = -np.inf
        order.append(int(np.argmax(cover)))
        selected[order[-1]] = True
    return order


def reference_radius(E, centers):
    X = E.data.astype(np.float64)
    d2 = reference_sq_distances(X, np.einsum("ij,ij->i", X, X), list(centers))
    return float(np.sqrt(np.maximum(d2.min(axis=1), 0.0)).max())


def kcenter_instances():
    for seed in range(4):
        yield random_instance(seed, m=600, d=8, c=5, cluster_spread=0.1, noise_fraction=0.2)[0]
    rng = np.random.default_rng(54)
    rows = rng.normal(size=(50, 6)).astype(np.float32)
    yield EmbeddingMatrix(np.repeat(rows, 4, axis=0))  # four copies of each row: tied distances


class TestUniform:
    def test_full_budget_returns_everything(self):
        assert list(select_uniform(5, 5, seed=0)) == [0, 1, 2, 3, 4]

    def test_same_seed_same_set(self):
        np.testing.assert_array_equal(select_uniform(20, 7, seed=3), select_uniform(20, 7, seed=3))

    def test_marginal_frequencies(self):
        # s=1 from m=2: each index should appear about half the time
        hits = sum(select_uniform(2, 1, seed=s)[0] for s in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_budget_over_population(self):
        with pytest.raises(DataError):
            select_uniform(3, 4, seed=0)


class TestSmallLoss:
    def test_top_confidence(self):
        C = ConfidenceVector([0.1, 0.9, 0.5])
        assert list(select_small_loss(C, 2)) == [1, 2]

    def test_ties_prefer_low_index(self):
        C = ConfidenceVector([0.5, 0.5, 0.5])
        assert list(select_small_loss(C, 2)) == [0, 1]

    def test_full_budget(self):
        C = ConfidenceVector([0.2, 0.8, 0.5])
        assert list(select_small_loss(C, 3)) == [0, 1, 2]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(51)
        v = rng.uniform(0.05, 0.95, 30)
        base = select_small_loss(ConfidenceVector(v), 10)
        for f in (np.sqrt, lambda x: x**3, lambda x: np.tanh(2 * x)):
            np.testing.assert_array_equal(base, select_small_loss(ConfidenceVector(f(v)), 10))


class TestMargin:
    def test_smallest_gap_first(self):
        P = ProbabilityMatrix(np.array([[0.5, 0.5], [0.9, 0.1]]))
        assert list(select_margin(P, 1)) == [0]

    def test_identical_rows_take_prefix(self):
        P = ProbabilityMatrix(np.tile([0.6, 0.4], (5, 1)))
        assert list(select_margin(P, 3)) == [0, 1, 2]

    def test_full_budget(self):
        P = ProbabilityMatrix(np.array([[0.5, 0.5], [0.9, 0.1]]))
        assert list(select_margin(P, 2)) == [0, 1]

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            select_margin(ProbabilityMatrix(np.ones((3, 1))), 1)


class TestKCenter:
    def test_hand_example(self):
        E = EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        order, _ = select_kcenter(E, 2, seed_index=0)
        assert list(order) == [0, 1]
        assert covering_radius(E, order[:1]) == pytest.approx(np.sqrt(2.0))
        assert covering_radius(E, order) == 0.0

    def test_budget_one_returns_seed(self):
        E = EmbeddingMatrix(np.eye(3))
        order, times = select_kcenter(E, 1, seed_index=2)
        assert list(order) == [2] and times == []

    def test_all_duplicates_tie_rule(self):
        E = EmbeddingMatrix(np.ones((4, 2)))
        order, _ = select_kcenter(E, 2, seed_index=1)
        assert list(order) == [1, 0]

    def test_covering_radius_non_increasing(self):
        rng = np.random.default_rng(52)
        E = random_unit_rows(rng, 40, 6)
        order, _ = select_kcenter(E, 15, seed_index=0)
        radii = [covering_radius(E, order[:k]) for k in range(1, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(radii, radii[1:]))

    def test_bad_seed_index(self):
        with pytest.raises(DataError):
            select_kcenter(EmbeddingMatrix(np.eye(3)), 2, seed_index=5)

    @pytest.mark.parametrize("centers,message", [
        ([], "at least one center"),
        ([5], "out of range"),
        ([-1], "out of range"),
        ([0.5], "not an integer"),
        ([1, 1], "duplicate"),
    ])
    def test_covering_radius_rejects_bad_centers(self, centers, message):
        with pytest.raises(DataError, match=message):
            covering_radius(EmbeddingMatrix(np.eye(3)), centers)

    def test_order_and_radius_equal_the_reference_formula(self):
        for E in kcenter_instances():
            s = 80
            order, _ = select_kcenter(E, s, seed_index=3)
            assert order.tolist() == reference_kcenter(E, s, seed_index=3)
            for k in (1, 2, 10, 40, s):
                assert covering_radius(E, order[:k]) == reference_radius(E, order[:k])

    def test_peak_memory_is_one_distance_buffer(self):
        # one float64 buffer of (s - 1) m for the distances, plus the
        # float64 copy of the rows and a few O(m) arrays; the (m, k)
        # formula held about three m k temporaries at once
        m, d, s = 4000, 8, 100
        E = random_instance(0, m=m, d=d, c=5, cluster_spread=0.1)[0]
        tracemalloc.start()
        try:
            select_kcenter(E, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= s * m * 8 + 4 * m * d * 8, f"{peak / (s * m * 8):.2f} buffers"


class TestCommonContracts:
    def test_all_selectors_return_distinct_in_range(self):
        rng = np.random.default_rng(53)
        m, s = 25, 9
        E = random_unit_rows(rng, m, 5)
        C = ConfidenceVector(rng.uniform(0, 1, m))
        logits = rng.uniform(0.1, 1.0, (m, 4))
        P = ProbabilityMatrix(logits / logits.sum(axis=1, keepdims=True))
        for sel in (
            select_uniform(m, s, seed=1),
            select_small_loss(C, s),
            select_margin(P, s),
            select_kcenter(E, s, seed_index=0)[0],
        ):
            assert len(sel) == s
            assert len(set(map(int, sel))) == s
            assert all(0 <= int(i) < m for i in sel)
