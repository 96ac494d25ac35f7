import math

import numpy as np
import pytest

from relpick import (
    ConfidenceVector,
    DataError,
    EmbeddingMatrix,
    SizeGuardError,
    Utility,
    build_graph,
    objective,
)
from relpick import oracle
from relpick.oracle import brute_force_optimum, naive_objective, random_instance

from conftest import band_pair


class TestNaiveObjective:
    def test_empty_subset(self, orthogonal3):
        E, C, _ = orthogonal3
        assert naive_objective(E, C, 0.5, [], math.tanh) == 0.0

    def test_single_example(self):
        E = EmbeddingMatrix(np.array([[1.0]]))
        C = ConfidenceVector([1.0])
        assert naive_objective(E, C, 0.5, [0], math.tanh) == pytest.approx(math.tanh(1.0))

    def test_matches_fast_objective(self):
        rng = np.random.default_rng(31)
        for seed in range(25):
            E, C, _, _ = random_instance(seed, m=40, d=8, c=4, cluster_spread=0.4)
            tau = float(rng.uniform(0.3, 0.9))
            S = list(rng.choice(40, size=rng.integers(1, 20), replace=False))
            G = build_graph(E, tau)
            fast = objective(G, C, S, Utility.tanh())
            slow = naive_objective(E, C, tau, S, math.tanh)
            assert fast == pytest.approx(slow, abs=1e-7)

    def test_matches_engine_on_a_band_pair(self):
        # the pair's float64 cosines lie within the rounding band of a
        # float32 midpoint, so only the exact dot decides its weight; at
        # tau equal to that weight the pair is still an edge
        E, _ = band_pair()
        C = ConfidenceVector([0.5, 0.7])
        w = float(build_graph(E, 0.5).neighbors(0)[1][1])
        for tau in (0.5, w):
            fast = objective(build_graph(E, tau), C, [0], Utility.tanh())
            assert naive_objective(E, C, tau, [0], math.tanh) == pytest.approx(fast, abs=1e-12)


class TestBruteForce:
    def test_orthogonal_identity(self, orthogonal3):
        _, C, G = orthogonal3
        best, obj = brute_force_optimum(G, C, 2, Utility.identity())
        assert best == (0, 1)
        assert obj == pytest.approx(1.4, abs=1e-12)

    def test_full_budget_single_subset(self, orthogonal3):
        _, C, G = orthogonal3
        best, obj = brute_force_optimum(G, C, 3, Utility.tanh())
        assert best == (0, 1, 2)
        assert obj == pytest.approx(objective(G, C, [0, 1, 2], Utility.tanh()), abs=1e-12)

    def test_tie_breaks_lexicographic(self):
        E = EmbeddingMatrix(np.eye(3, dtype=np.float32))
        C = ConfidenceVector([0.5, 0.5, 0.5])
        G = build_graph(E, 0.5)
        best, _ = brute_force_optimum(G, C, 1, Utility.tanh())
        assert best == (0,)

    def test_s1_matches_direct_scan(self):
        for seed in range(10):
            E, C, _, _ = random_instance(seed, m=12, d=4, c=2, cluster_spread=0.4)
            G = build_graph(E, 0.5)
            u = Utility.tanh()
            best, obj = brute_force_optimum(G, C, 1, u)
            singles = [objective(G, C, [x], u) for x in range(12)]
            assert obj == pytest.approx(max(singles), abs=1e-12)
            assert best[0] == int(np.argmax(singles))

    def test_size_guard(self):
        E, C, _, _ = random_instance(0, m=40, d=4, c=2, cluster_spread=0.4)
        G = build_graph(E, 0.5)
        with pytest.raises(SizeGuardError):
            brute_force_optimum(G, C, 15, Utility.tanh())

    def test_checks_its_inputs_once(self, monkeypatch):
        calls, check = [], oracle.check_inputs
        monkeypatch.setattr(oracle, "check_inputs", lambda *a: calls.append(a) or check(*a))
        E, C, _, _ = random_instance(0, m=8, d=4, c=2, cluster_spread=0.4)
        G, u = build_graph(E, 0.5), Utility.tanh()
        best, obj = brute_force_optimum(G, C, 3, u)  # C(8, 3) = 56 subsets
        assert len(calls) == 1
        assert obj == oracle.dense_objective(G.dense_weights(), C, best, u)


class TestRandomInstance:
    def test_deterministic_per_seed(self):
        a = random_instance(7, m=30, d=5, c=3, cluster_spread=0.2, noise_fraction=0.3)
        b = random_instance(7, m=30, d=5, c=3, cluster_spread=0.2, noise_fraction=0.3)
        np.testing.assert_array_equal(a[0].data, b[0].data)
        np.testing.assert_array_equal(a[1].values, b[1].values)
        np.testing.assert_array_equal(a[2].values, b[2].values)
        np.testing.assert_array_equal(a[3].values, b[3].values)

    def test_zero_spread_collapses_classes(self):
        E, _, labels, flags = random_instance(8, m=20, d=6, c=3, cluster_spread=0.0)
        U = E.data.astype(np.float64)
        for j in range(3):
            members = np.flatnonzero((labels.values == j) & ~flags.values)
            for i in members[1:]:
                assert float(np.dot(U[members[0]], U[i])) == pytest.approx(1.0, abs=1e-6)

    def test_zero_noise_fraction(self):
        _, _, _, flags = random_instance(9, m=25, d=4, c=2, noise_fraction=0.0)
        assert not flags.values.any()

    def test_rows_unit_normalized(self):
        E, _, _, _ = random_instance(10, m=25, d=4, c=2, cluster_spread=0.3)
        assert np.all(np.abs(np.linalg.norm(E.data.astype(np.float64), axis=1) - 1.0) <= 1e-6)

    def test_noisy_confidences_depressed(self):
        _, C, _, flags = random_instance(11, m=100, d=8, c=4, noise_fraction=0.2)
        assert C.values[flags.values].max() < C.values[~flags.values].min()

    def test_negative_seed_refused(self):
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            random_instance(-1, m=10, d=4, c=2)
