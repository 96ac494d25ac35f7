import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from relpick import (
    ConfidenceVector,
    ConfigError,
    DataError,
    EmbeddingMatrix,
    SelectionConfig,
    Utility,
    build_graph,
    evaluate_subset,
    objective,
    select,
)
from relpick import NoiseFlagVector, LabelVector, NeighborGraph
from relpick.pruner import recompute_cn, select_streaming
from relpick import oracle, pruner, simgraph

from conftest import boundary_pair, random_unit_rows, rescaled_duplicates


def one_row_gain(G, C, cn, x, rule, u):
    """Candidate x's gain on the accumulator cn, from its definition: the
    self gain u(cn[x] + C[x]) - u(cn[x]) under the surrogate rule, else
    the exact marginal, the sum of u(cn[j] + w(x, j) C[x]) - u(cn[j])
    over row x's stored edges (0 for a row that stores none). The sum is
    one ``reduceat`` segment, which adds in the order the engine's
    segment sums do; ``np.sum`` may differ from it in the last bit."""
    if rule == "surrogate":
        return float(u(cn[x] + C.values[x]) - u(cn[x]))
    js, ws = G.neighbors(x)
    v = u(cn[js] + ws.astype(np.float64) * C.values[x]) - u(cn[js])
    return float(np.add.reduceat(v, [0])[0]) if v.size else 0.0


def replayed_gains(G, C, order, rule, u):
    """Each pick's ``one_row_gain`` on the accumulator of the picks before
    it, each pick added to cn in pick order through ``G.neighbors``."""
    cn, gains = np.zeros(G.m), []
    for x in order:
        gains.append(one_row_gain(G, C, cn, x, rule, u))
        js, ws = G.neighbors(x)
        cn[js] += ws.astype(np.float64) * C.values[x]
    return gains


def reference_greedy(G, C, labels, budget, rule, u):
    """Greedy from scratch: every step rebuilds the accumulator with
    recompute_cn and every candidate's gain from it, keeping no
    incremental state. Balanced runs cycle over the label classes."""
    if labels is None:
        groups = [list(range(G.m))]
    else:
        groups = [[x for x in range(G.m) if labels.values[x] == j]
                  for j in range(int(labels.values.max()) + 1)]
    order = []
    turn = 0
    while len(order) < budget:
        cand = [x for x in groups[turn % len(groups)] if x not in order]
        turn += 1
        if not cand:
            continue
        cn = recompute_cn(G, C, order)
        # first maximum: lowest index
        order.append(max(cand, key=lambda x: one_row_gain(G, C, cn, x, rule, u)))
    return order


class TestUtility:
    def test_tanh_contract(self):
        u = Utility.tanh()
        u.validate_shape()
        grid = np.linspace(0.0, 5.0, 200)
        vals = u(grid)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) > 0)          # strictly increasing
        assert np.all(np.diff(np.diff(vals)) < 0)  # strictly concave

    def test_identity_is_valid(self):
        Utility.identity().validate_shape()

    def test_piecewise_valid(self):
        u = Utility.piecewise([(0, 0), (1, 0.8), (2, 1.2), (4, 1.5)])
        assert u(0.5) == pytest.approx(0.4)
        assert u(10.0) == pytest.approx(1.5)  # constant past last knot

    def test_piecewise_must_start_at_origin(self):
        with pytest.raises(ConfigError):
            Utility.piecewise([(0, 0.1), (1, 0.5)])

    def test_piecewise_non_concave_rejected(self):
        with pytest.raises(ConfigError):
            Utility.piecewise([(0, 0), (1, 0.1), (2, 1.0)])

    def test_piecewise_decreasing_rejected(self):
        with pytest.raises(ConfigError):
            Utility.piecewise([(0, 0), (1, 1.0), (2, 0.5)])

    def test_one_argument_fn(self, identical2):
        _, C, G = identical2
        u = Utility("half", lambda z: 0.5 * z)
        u.validate_shape()
        assert objective(G, C, [0], u) == pytest.approx(0.5, abs=1e-12)
        gains = pruner._exact_gains(G, C.values, u)(np.zeros(G.m), np.array([0]))
        assert gains[0] == pytest.approx(0.5, abs=1e-12)


class TestObjective:
    def test_empty_subset_is_zero(self, orthogonal3):
        _, C, G = orthogonal3
        assert objective(G, C, [], Utility.tanh()) == 0.0

    def test_single_example_tanh(self):
        E = EmbeddingMatrix(np.array([[1.0]]))
        G = build_graph(E, 0.5)
        C = ConfidenceVector([1.0])
        assert objective(G, C, [0], Utility.tanh()) == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_two_identical_rows_identity(self, identical2):
        _, C, G = identical2
        assert objective(G, C, [0], Utility.identity()) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_index_rejected(self, identical2):
        _, C, G = identical2
        with pytest.raises(DataError):
            objective(G, C, [0, 0], Utility.tanh())

    def test_out_of_range_rejected(self, identical2):
        _, C, G = identical2
        with pytest.raises(DataError):
            objective(G, C, [5], Utility.tanh())

    @pytest.mark.parametrize("S", [[1.5], ["1"], 1])
    def test_non_integer_ids_rejected(self, identical2, S):
        _, C, G = identical2
        with pytest.raises(DataError, match="integer"):
            objective(G, C, S, Utility.tanh())


class TestCheckInputs:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("score", [
        lambda E, G, C: objective(G, C, [0, 1, 2], Utility.tanh()),
        lambda E, G, C: evaluate_subset(G, C, [0, 1, 2], Utility.tanh()),
        lambda E, G, C: select(G, C, None, SelectionConfig(budget=3, tau=0.5)),
        lambda E, G, C: select_streaming(E, C, SelectionConfig(budget=3, tau=0.5)),
    ], ids=["objective", "evaluate_subset", "select", "select_streaming"])
    def test_confidences_of_another_length_refused(self, orthogonal3, score, n):
        E, _, G = orthogonal3
        C = ConfidenceVector(np.full(n, 0.5))
        with pytest.raises(DataError, match=f"^confidence length {n} does not match 3 examples$"):
            score(E, G, C)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("score", [
        lambda G, C, u: recompute_cn(G, C, [0]),
        lambda G, C, u: oracle.dense_objective(G.dense_weights(), C, [0], u),
        # a subset size of 4 fails the enumeration guard, so the length is checked first
        lambda G, C, u: oracle.brute_force_optimum(G, C, 4, u),
    ], ids=["recompute_cn", "dense_objective", "brute_force_optimum"])
    def test_reference_helpers_refuse_confidences_of_another_length(self, orthogonal3,
                                                                     score, n):
        _, _, G = orthogonal3
        C = ConfidenceVector(np.full(n, 0.5))
        with pytest.raises(DataError, match=f"^confidence length {n} does not match 3 examples$"):
            score(G, C, Utility.tanh())

    @pytest.mark.parametrize("S,match", [([-1], "out of range"), ([3], "out of range"),
                                         ([1, 1], "duplicate"), ([0.5], "not an integer")])
    def test_recompute_cn_refuses_bad_subsets(self, orthogonal3, S, match):
        # an unchecked -1 sliced an empty row, and a repeated id counted twice
        _, C, G = orthogonal3
        with pytest.raises(DataError, match=match):
            recompute_cn(G, C, S)

    def test_labels_and_noise_flags_of_another_length_refused(self, orthogonal3):
        _, C, G = orthogonal3
        with pytest.raises(DataError, match="^label length 2 does not match 3 examples$"):
            select(G, C, LabelVector([0, 1]), SelectionConfig(budget=1, balanced=True))
        with pytest.raises(DataError, match="^noise-flag length 4 does not match 3 examples$"):
            evaluate_subset(G, C, [0], Utility.tanh(), NoiseFlagVector(np.zeros(4, bool)))


class TestGains:
    """The reference gain ``one_row_gain``, which the engine's gains are
    checked against, on values worked by hand and on objective marginals."""

    def test_surrogate_fresh_state(self, orthogonal3):
        _, _, G = orthogonal3
        C = ConfidenceVector([0.8, 0.5, 0.1])
        gain = one_row_gain(G, C, np.zeros(3), 0, "surrogate", Utility.tanh())
        assert gain == pytest.approx(math.tanh(0.8), abs=1e-12)

    def test_surrogate_zero_confidence(self, orthogonal3):
        _, _, G = orthogonal3
        C = ConfidenceVector([0.0, 0.5, 0.1])
        cn = recompute_cn(G, C, [1])
        assert one_row_gain(G, C, cn, 0, "surrogate", Utility.tanh()) == 0.0

    def test_surrogate_identity_midway(self, identical2):
        _, C, G = identical2
        cn = recompute_cn(G, C, [1])  # cn[0] = 0.5 via the cross edge
        assert cn[0] == pytest.approx(0.5)
        gain = one_row_gain(G, C, cn, 0, "surrogate", Utility.identity())
        assert gain == pytest.approx(0.5, abs=1e-12)

    def test_exact_equals_surrogate_when_isolated(self, orthogonal3):
        _, _, G = orthogonal3
        C = ConfidenceVector([0.8, 0.5, 0.1])
        cn, u = np.zeros(3), Utility.tanh()
        e = one_row_gain(G, C, cn, 0, "exact", u)
        assert e == pytest.approx(math.tanh(0.8), abs=1e-12)
        assert e == pytest.approx(one_row_gain(G, C, cn, 0, "surrogate", u), abs=1e-12)

    def test_exact_two_identical_rows(self, identical2):
        _, C, G = identical2
        gain = one_row_gain(G, C, np.zeros(2), 0, "exact", Utility.identity())
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_exact_gain_of_row_without_edges_is_zero(self):
        G = NeighborGraph(m=2, tau=0.5, indptr=np.array([0, 0, 1]),
                          indices=np.array([1]), weights=np.array([1.0], dtype=np.float32))
        C = ConfidenceVector([0.9, 0.4])
        assert one_row_gain(G, C, np.zeros(2), 0, "exact", Utility.tanh()) == 0.0

    def test_exact_gain_matches_objective_marginal(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            E, C, _, _ = oracle.random_instance(seed, m=30, d=6, c=3, cluster_spread=0.4)
            G = build_graph(E, 0.5)
            u = Utility.tanh()
            S = list(rng.choice(30, size=rng.integers(0, 10), replace=False))
            cn = recompute_cn(G, C, S)
            base = objective(G, C, S, u)
            for x in range(30):
                if x in S:
                    continue
                marginal = objective(G, C, S + [x], u) - base
                assert one_row_gain(G, C, cn, x, "exact", u) == pytest.approx(marginal, abs=1e-9)


class TestMonotoneSubmodular:
    def test_monotonicity_nested_sets(self):
        rng = np.random.default_rng(22)
        u = Utility.tanh()
        for seed in range(30):
            E, C, _, _ = oracle.random_instance(seed, m=25, d=5, c=3, cluster_spread=0.5)
            G = build_graph(E, 0.4)
            big = list(rng.choice(25, size=rng.integers(2, 20), replace=False))
            small = big[: rng.integers(1, len(big))]
            assert objective(G, C, small, u) <= objective(G, C, big, u) + 1e-9

    def test_submodularity_diminishing_returns(self):
        rng = np.random.default_rng(23)
        u = Utility.tanh()
        for seed in range(30):
            E, C, _, _ = oracle.random_instance(seed, m=25, d=5, c=3, cluster_spread=0.5)
            G = build_graph(E, 0.4)
            big = list(rng.choice(25, size=rng.integers(2, 15), replace=False))
            small = big[: rng.integers(1, len(big))]
            outside = [x for x in range(25) if x not in big]
            x = int(rng.choice(outside))
            g_small = objective(G, C, small + [x], u) - objective(G, C, small, u)
            g_big = objective(G, C, big + [x], u) - objective(G, C, big, u)
            assert g_small >= g_big - 1e-9


class TestSelect:
    def test_orthogonal_picks_top_confidences(self, orthogonal3):
        _, C, G = orthogonal3
        for rule in ("surrogate", "exact", "lazy"):
            r = select(G, C, None, SelectionConfig(budget=2, tau=0.5, rule=rule))
            assert r.order == [0, 1]

    def test_first_pick_is_argmax_confidence_surrogate(self):
        for seed in range(10):
            E, C, _, _ = oracle.random_instance(seed, m=40, d=6, c=4, cluster_spread=0.3)
            G = build_graph(E, 0.6)
            r = select(G, C, None, SelectionConfig(budget=1, tau=0.6, rule="surrogate"))
            assert r.order[0] == int(np.argmax(C.values))

    def test_config_records_the_graph_tau(self):
        E, C, _, _ = oracle.random_instance(0, m=40, d=6, c=4, cluster_spread=0.3)
        r = select(build_graph(E, 0.6), C, None, SelectionConfig(budget=5))
        assert r.config.tau == 0.6

    def test_identical_pair_trace(self, identical2):
        _, C, G = identical2
        r = select(G, C, None, SelectionConfig(budget=2, tau=0.9, utility="identity", rule="exact"))
        assert r.order == [0, 1]
        assert r.objective_trace == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_lazy_equals_exact(self):
        instances = [oracle.random_instance(seed, m=60, d=8, c=4, cluster_spread=0.3)[:2]
                     for seed in range(15)]
        E = rescaled_duplicates(seed=3)  # four copies of each row: tied gains
        instances.append((E, ConfidenceVector(np.tile(np.linspace(0.2, 0.9, 12), 4))))
        for E, C in instances:
            G = build_graph(E, 0.6)
            a = select(G, C, None, SelectionConfig(budget=24, tau=0.6, rule="exact"))
            b = select(G, C, None, SelectionConfig(budget=24, tau=0.6, rule="lazy"))
            assert a.order == b.order
            assert a.gains == b.gains
            assert a.objective_trace == b.objective_trace

    @pytest.mark.parametrize("rule", ["exact", "lazy"])
    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("fill_edges", [1 << 20, 50])
    def test_lazy_gains_equal_a_full_pass_at_every_call(self, monkeypatch, rule, balanced,
                                                        fill_edges):
        # every exact-marginal call (the fill, each CELF batch) runs in
        # blocks of at most fill_edges edges; each must equal, bit for bit,
        # one reduceat over the whole CSR on that cn, the fill's at cn = 0,
        # under every utility and with a zero confidence; odd seeds sign
        # the zeros, the confidence's and the piecewise utility's u(0)
        exact_gains, first_pass = pruner._exact_gains, pruner._first_pass
        monkeypatch.setattr(pruner, "_FILL_EDGES", fill_edges)
        for seed, name in itertools.product(range(6), ("tanh", "identity", "piecewise")):
            zero = -0.0 if seed % 2 else 0.0
            knots = ((0, zero), (0.5, 0.4), (2, 0.9)) if name == "piecewise" else None
            E, C, labels, _ = oracle.random_instance(seed, m=120, d=6, c=3, cluster_spread=0.3,
                                                     noise_fraction=0.2)
            C = ConfidenceVector(np.where(np.arange(C.m) == seed, zero, C.values))
            G = build_graph(E, 0.6)
            cfg = SelectionConfig(budget=60, tau=0.6, rule=rule, balanced=balanced, utility=name,
                                  utility_knots=knots)
            u = pruner.utility_from_config(cfg)
            inc = G.weights.astype(np.float64) * C.values[np.repeat(np.arange(G.m),
                                                                    np.diff(G.indptr))]
            fills, refreshed = [], []  # refreshed: stored edges of each CELF batch

            def full_pass(cn):
                return pruner._marginals(cn, G.indices, inc, G.indptr[:-1], u)

            def checked_fill(G, conf, u):
                gains = first_pass(G, conf, u)
                assert gains.tobytes() == full_pass(np.zeros(G.m)).tobytes()
                fills.append(gains.size)
                return gains

            def checked_gains(G, conf, u):
                gains_at = exact_gains(G, conf, u)

                def wrapped(cn, rows):
                    gains = gains_at(cn, rows)
                    assert np.array_equal(gains, full_pass(cn)[rows])
                    refreshed.append(int(np.diff(G.indptr)[rows].sum()))
                    return gains
                return wrapped
            monkeypatch.setattr(pruner, "_first_pass", checked_fill)
            monkeypatch.setattr(pruner, "_exact_gains", checked_gains)
            select(G, C, labels if balanced else None, cfg)
            assert fills == [G.m] and refreshed
            if fill_edges == 50:  # the fill and the refreshes cross blocks
                assert G.nnz > 2 * fill_edges and max(refreshed) > 2 * fill_edges

    @pytest.mark.parametrize("rule", ["exact", "lazy"])
    @pytest.mark.parametrize("fill_edges", [8, 50, 1 << 18])
    def test_no_marginals_call_exceeds_a_block(self, monkeypatch, rule, fill_edges):
        monkeypatch.setattr(pruner, "_FILL_EDGES", fill_edges)
        sizes, marginals = [], pruner._marginals
        monkeypatch.setattr(pruner, "_marginals",
                            lambda *a: sizes.append(a[1].size) or marginals(*a))
        for seed in range(3):
            E, C, _, _ = oracle.random_instance(seed, m=150, d=6, c=3, cluster_spread=0.3)
            G = build_graph(E, 0.6)
            largest = int(np.diff(G.indptr).max())
            assert 8 < largest < G.nnz, "precondition: rows larger than the smallest block"
            sizes.clear()
            select(G, C, None, SelectionConfig(budget=50, tau=0.6, rule=rule))
            assert max(sizes) <= max(fill_edges, largest)

    def test_exact_peak_memory_is_bounded_by_the_block(self, monkeypatch):
        # a dense graph of many blocks of edges; beside the graph, a
        # selection holds a few blocks' temporaries (about 60 bytes per
        # edge) and O(m) arrays. An unblocked fill would hold them all
        fill_edges = 1 << 13
        monkeypatch.setattr(pruner, "_FILL_EDGES", fill_edges)
        E, C, _, _ = oracle.random_instance(0, m=1500, d=16, c=4, cluster_spread=0.05)
        G = build_graph(E, 0.9)
        assert G.nnz > 10 * fill_edges, "precondition"
        tracemalloc.start()
        try:
            select(G, C, None, SelectionConfig(budget=10, tau=0.9, rule="exact"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * fill_edges * 8, f"{peak / (fill_edges * 8):.1f} blocks"

    @pytest.mark.parametrize("rule,balanced", [
        ("surrogate", False), ("exact", False), ("surrogate", True), ("exact", True),
    ])
    def test_matches_from_scratch_reference(self, rule, balanced):
        u = Utility.tanh()
        for seed in range(30):
            rng = np.random.default_rng(60_000 + seed)
            m = int(rng.integers(10, 60))
            E, C, labels, _ = oracle.random_instance(seed, m=m, d=6, c=3, cluster_spread=0.3,
                                                     noise_fraction=0.2)
            G = build_graph(E, 0.6)
            budget = int(rng.integers(1, m + 1))
            labels = labels if balanced else None
            cfg = SelectionConfig(budget=budget, tau=0.6, rule=rule, balanced=balanced)
            assert select(G, C, labels, cfg).order == reference_greedy(G, C, labels, budget,
                                                                       rule, u)

    def test_surrogate_masks_a_pick_its_update_does_not_reach(self):
        # row 1 stores no edge, not even its self-loop, so picking it
        # changes no cn: its gain must still leave the candidates
        G = NeighborGraph(m=3, tau=0.5, indptr=np.array([0, 1, 1, 2]), indices=np.array([0, 2]),
                          weights=np.array([1.0, 1.0], dtype=np.float32))
        C = ConfidenceVector([0.2, 0.9, 0.1])
        assert select(G, C, None, SelectionConfig(budget=3, tau=0.5)).order == [1, 0, 2]

    @pytest.mark.parametrize("rule,balanced", [
        ("surrogate", False), ("exact", False), ("surrogate", True), ("exact", True),
    ])
    def test_gains_equal_one_row_gains_on_replayed_state(self, rule, balanced):
        u = Utility.tanh()
        for seed in range(10):
            E, C, labels, _ = oracle.random_instance(seed, m=80, d=6, c=3, cluster_spread=0.3,
                                                     noise_fraction=0.2)
            G = build_graph(E, 0.6)
            cfg = SelectionConfig(budget=40, tau=0.6, rule=rule, balanced=balanced)
            r = select(G, C, labels if balanced else None, cfg)
            assert r.gains == replayed_gains(G, C, r.order, rule, u)

    def test_streaming_gains_equal_one_row_gains_on_replayed_state(self):
        for seed in range(5):
            E, C, _, _ = oracle.random_instance(seed, m=100, d=8, c=5, cluster_spread=0.3)
            r = select_streaming(E, C, SelectionConfig(budget=40, tau=0.7))
            assert r.gains == replayed_gains(build_graph(E, 0.7), C, r.order, "surrogate",
                                             Utility.tanh())

    def test_lazy_computes_vectorized_marginals_once(self, monkeypatch):
        # balanced exact too: the fill reads no cn and makes no _marginals
        # call, and every later call is one CELF batch from one class's heap
        E, C, labels, _ = oracle.random_instance(3, m=200, d=8, c=4, cluster_spread=0.3)
        G = build_graph(E, 0.6)
        assert G.nnz < pruner._FILL_EDGES  # so each batch is one _marginals call
        segments, fills = [], []
        marginals, first_pass = pruner._marginals, pruner._first_pass
        monkeypatch.setattr(pruner, "_marginals",
                            lambda *a: segments.append(a[3].size) or marginals(*a))

        def counted_fill(*args):
            before = len(segments)
            gains = first_pass(*args)
            fills.append(len(segments) - before)
            return gains
        monkeypatch.setattr(pruner, "_first_pass", counted_fill)
        for rule, balanced in (("lazy", False), ("exact", True)):
            segments.clear()
            fills.clear()
            cfg = SelectionConfig(budget=40, tau=0.6, rule=rule, balanced=balanced)
            select(G, C, labels if balanced else None, cfg)
            assert fills == [0]  # one fill, with no _marginals call
            assert all(1 <= n <= pruner._CELF_BATCH for n in segments)  # refresh batches
            assert max(segments) > 1

    def test_lazy_wall_times_are_per_pick(self):
        E, C, _, _ = oracle.random_instance(3, m=200, d=8, c=4, cluster_spread=0.3)
        G = build_graph(E, 0.6)
        t0 = time.perf_counter()
        r = select(G, C, None, SelectionConfig(budget=40, tau=0.6, rule="lazy"))
        elapsed = time.perf_counter() - t0
        assert len(r.wall_times) == len(r.order) == 40
        assert len(set(r.wall_times)) > 1  # measured per pick, not one average repeated
        assert sum(r.wall_times) <= elapsed

    def test_budget_clamped_with_warning(self, orthogonal3):
        _, C, G = orthogonal3
        r = select(G, C, None, SelectionConfig(budget=10, tau=0.5))
        assert sorted(r.order) == [0, 1, 2]
        assert any("clamped" in w for w in r.warnings)

    def test_balanced_requires_labels(self, orthogonal3):
        _, C, G = orthogonal3
        with pytest.raises(ConfigError):
            select(G, C, None, SelectionConfig(budget=2, tau=0.5, balanced=True))

    def test_balanced_counts_differ_by_at_most_one(self):
        for c in (2, 5):
            E, C, labels, _ = oracle.random_instance(41, m=60, d=6, c=c, cluster_spread=0.3)
            G = build_graph(E, 0.6)
            r = select(G, C, labels, SelectionConfig(budget=23, tau=0.6, balanced=True))
            counts = np.bincount(labels.values[r.order], minlength=c)
            assert counts.max() - counts.min() <= 1

    def test_balanced_exhausted_class_still_meets_budget(self):
        E = EmbeddingMatrix(np.eye(6, dtype=np.float32))
        C = ConfidenceVector(np.linspace(0.9, 0.4, 6))
        labels = LabelVector(np.array([0, 1, 1, 1, 1, 1]))
        G = build_graph(E, 0.5)
        r = select(G, C, labels, SelectionConfig(budget=4, tau=0.5, balanced=True))
        assert len(r.order) == 4

    @pytest.mark.parametrize("rule", ["surrogate", "exact"])
    def test_balanced_skips_empty_class(self, rule):
        E = EmbeddingMatrix(np.eye(4, dtype=np.float32))
        C = ConfidenceVector([0.9, 0.8, 0.7, 0.6])
        labels = LabelVector(np.array([0, 0, 2, 2]))  # class 1 is empty
        G = build_graph(E, 0.5)
        cfg = SelectionConfig(budget=4, tau=0.5, rule=rule, balanced=True)
        assert select(G, C, labels, cfg).order == [0, 2, 1, 3]

    @pytest.mark.parametrize("rule", ["surrogate", "exact"])
    def test_balanced_takes_classes_in_id_order_and_drops_spent_ones(self, rule):
        # classes 0, 1 and 2 hold 1, 2 and 4 rows
        E = EmbeddingMatrix(np.eye(7, dtype=np.float32))
        C = ConfidenceVector(np.linspace(0.9, 0.3, 7))
        labels = LabelVector(np.array([2, 1, 2, 0, 2, 1, 2]))
        G = build_graph(E, 0.5)
        cfg = SelectionConfig(budget=7, tau=0.5, rule=rule, balanced=True)
        order = select(G, C, labels, cfg).order
        assert labels.values[order].tolist() == [0, 1, 2, 1, 2, 2, 2]

    def test_balanced_lazy_equals_balanced_exact_without_a_warning(self):
        E, C, labels, _ = oracle.random_instance(7, m=60, d=6, c=3, cluster_spread=0.3)
        G = build_graph(E, 0.6)
        exact, lazy = (select(G, C, labels, SelectionConfig(budget=20, tau=0.6, rule=rule,
                                                            balanced=True))
                       for rule in ("exact", "lazy"))
        assert lazy.order == exact.order
        assert lazy.gains == exact.gains
        assert lazy.objective_trace == exact.objective_trace
        assert exact.warnings == lazy.warnings == []
        assert lazy.config.rule == "lazy"

    @pytest.mark.parametrize("balanced", [False, True])
    def test_labels_without_balanced_warn(self, balanced):
        E, C, labels, _ = oracle.random_instance(7, m=30, d=6, c=3, cluster_spread=0.3)
        G = build_graph(E, 0.6)
        r = select(G, C, labels, SelectionConfig(budget=5, tau=0.6, balanced=balanced))
        ignored = ["labels are used only by balanced selection; ignored"]
        assert r.warnings == ([] if balanced else ignored)
        if not balanced:
            assert r.order == select(G, C, None, SelectionConfig(budget=5, tau=0.6)).order

    def test_balanced_groups_only_present_classes(self):
        E = EmbeddingMatrix(np.eye(3, dtype=np.float32))
        C = ConfidenceVector([0.9, 0.8, 0.7])
        labels = LabelVector(np.array([0, 1, 10**6]))
        G = build_graph(E, 0.5)
        t0 = time.perf_counter()
        r = select(G, C, labels, SelectionConfig(budget=3, tau=0.5, balanced=True))
        assert time.perf_counter() - t0 < 1.0  # no pass per absent class id
        assert r.order == [0, 1, 2]

    def test_objective_trace_non_decreasing(self):
        E, C, _, _ = oracle.random_instance(5, m=50, d=6, c=4, cluster_spread=0.3)
        G = build_graph(E, 0.6)
        r = select(G, C, None, SelectionConfig(budget=25, tau=0.6))
        assert np.all(np.diff(r.objective_trace) >= -1e-9)

    def test_accumulator_matches_scratch_recompute(self, monkeypatch):
        seen, graph_rows = [], pruner._graph_rows

        def copying_rows(neighbors, conf):  # the engine's update, copying cn after each pick
            update = graph_rows(neighbors, conf)

            def copied(cn, x):
                rows_inc = update(cn, x)
                seen.append(cn.copy())
                return rows_inc
            return copied
        monkeypatch.setattr(pruner, "_graph_rows", copying_rows)
        E, C, labels, _ = oracle.random_instance(6, m=50, d=6, c=4, cluster_spread=0.3)
        G = build_graph(E, 0.6)
        runs = [(G, rule, False) for rule in ("surrogate", "exact", "lazy")]
        runs += [(simgraph.ball_stage(E, 0.6), "surrogate", balanced)  # rows on demand
                 for balanced in (False, True)]
        for source, rule, balanced in runs:
            seen.clear()
            r = select(source, C, labels if balanced else None,
                       SelectionConfig(budget=20, tau=0.6, rule=rule, balanced=balanced))
            assert len(seen) == len(r.order) == 20
            for k, cn in enumerate(seen):
                np.testing.assert_allclose(cn, recompute_cn(G, C, r.order[: k + 1]), atol=1e-9)

    def test_streaming_matches_graph_surrogate(self):
        for seed in range(8):
            E, C, _, _ = oracle.random_instance(seed, m=100, d=8, c=5, cluster_spread=0.3)
            G = build_graph(E, 0.7)
            cfg = SelectionConfig(budget=30, tau=0.7, rule="surrogate")
            assert select_streaming(E, C, cfg).order == select(G, C, None, cfg).order

    def test_streaming_matches_graph_surrogate_on_cosines_above_one(self):
        E = rescaled_duplicates(seed=2)
        C = ConfidenceVector(np.random.default_rng(2).uniform(0.1, 0.9, E.m))
        cfg = SelectionConfig(budget=20, tau=0.9, rule="surrogate")
        streamed, graphed = select_streaming(E, C, cfg), select(build_graph(E, 0.9), C, None, cfg)
        assert streamed.order == graphed.order
        assert streamed.gains == graphed.gains
        assert streamed.objective_trace == pytest.approx(graphed.objective_trace, rel=1e-12)

    def test_streaming_follows_edge_rule_at_float32_boundary(self):
        E = boundary_pair(0.9)
        C = ConfidenceVector([0.9, 0.5])
        r = select_streaming(E, C, SelectionConfig(budget=1, tau=0.9, utility="identity"))
        naive = oracle.naive_objective(E, C, 0.9, r.order, lambda z: z)
        assert r.objective_trace == [pytest.approx(naive, abs=1e-12)]

    def test_entry_point_serves_the_exact_rules(self):
        E, C, labels, _ = oracle.random_instance(0, m=60, d=4, c=2, cluster_spread=0.3)
        G = build_graph(E, 0.7)
        for rule in ("exact", "lazy"):
            for balanced in (False, True):
                cfg = SelectionConfig(budget=10, tau=0.7, rule=rule, balanced=balanced)
                same_result(pruner.select_embeddings(E, C, labels, cfg), select(G, C, labels, cfg))
            cfg = SelectionConfig(budget=10, tau=0.7, rule=rule)
            same_result(select_streaming(E, C, cfg), select(G, C, None, cfg))

    def test_determinism(self):
        E, C, labels, _ = oracle.random_instance(9, m=40, d=6, c=3, cluster_spread=0.3)
        G = build_graph(E, 0.6)
        cfg = SelectionConfig(budget=15, tau=0.6, rule="surrogate")
        a = select(G, C, None, cfg)
        b = select(G, C, None, cfg)
        assert a.order == b.order and a.gains == b.gains
        assert a.objective_trace == b.objective_trace


class TestEvaluateSubset:
    def test_empty_subset(self, orthogonal3):
        _, C, G = orthogonal3
        rep = evaluate_subset(G, C, [], Utility.tanh())
        assert rep.objective == 0.0 and rep.coverage == 0.0

    def test_full_subset_all_noisy(self, orthogonal3):
        _, C, G = orthogonal3
        flags = NoiseFlagVector(np.ones(3, dtype=bool))
        rep = evaluate_subset(G, C, [0, 1, 2], Utility.tanh(), noise_flags=flags)
        assert rep.noise_ratio == 1.0

    def test_identical_pair_coverage(self, identical2):
        _, C, G = identical2
        rep = evaluate_subset(G, C, [0], Utility.tanh())
        assert rep.coverage == 1.0
        assert rep.cn_min == pytest.approx(0.5) and rep.cn_max == pytest.approx(0.5)


def same_result(a, b):
    """Everything but the wall times, floats compared bit for bit."""
    assert a.order == b.order
    assert a.gains == b.gains
    assert a.objective_trace == b.objective_trace
    assert a.config == b.config and a.warnings == b.warnings


class TestRowsOnDemand:
    """``select`` on a ball stage, whose rows are computed as the picks need
    them, returns what ``select`` returns on the whole graph."""

    @staticmethod
    def both(E, C, labels, cfg):
        graphed = select(build_graph(E, cfg.tau), C, labels, cfg)
        stage = simgraph.ball_stage(E, cfg.tau)
        return graphed, select(stage, C, labels, cfg), stage

    @pytest.mark.parametrize("prefetch", [1, 7, 256])
    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("spread,tau", [(0.05, 0.9), (0.3, 0.7)])
    def test_same_result_as_the_graph(self, monkeypatch, prefetch, balanced, spread, tau):
        monkeypatch.setattr(pruner, "_PREFETCH_ROWS", prefetch)
        calls, call = [], simgraph.BallStage.__call__

        def recording(stage, ids):
            calls.append(np.asarray(ids).tolist())
            return call(stage, ids)
        monkeypatch.setattr(simgraph.BallStage, "__call__", recording)
        E, C, labels, _ = oracle.random_instance(4, m=700, d=16, c=5, cluster_spread=spread,
                                                 noise_fraction=0.2)
        cfg = SelectionConfig(budget=120, tau=tau, balanced=balanced)
        graphed, rowed, stage = self.both(E, C, labels if balanced else None, cfg)
        same_result(graphed, rowed)
        assert stage.rows < E.m if prefetch < 256 else stage.rows >= 120
        # no row is computed twice, nor after it was picked, and no call asks
        # for more rows than picks are left: the pick that makes a call is
        # the first one that no earlier call computed
        asked = [i for ids in calls for i in ids]
        assert len(set(asked)) == len(asked) == stage.rows
        done = set()
        for ids in calls:
            first = next(k for k, x in enumerate(rowed.order) if x not in done)
            assert not set(ids) & set(rowed.order[:first])
            assert len(ids) <= cfg.budget - first
            done.update(ids)
        assert done >= set(rowed.order)

    @pytest.mark.parametrize("balanced", [False, True])
    def test_budget_over_population_is_clamped(self, balanced):
        E, C, labels, _ = oracle.random_instance(1, m=40, d=8, c=3, cluster_spread=0.1)
        cfg = SelectionConfig(budget=50, tau=0.9, balanced=balanced)
        graphed, rowed, stage = self.both(E, C, labels, cfg)
        same_result(graphed, rowed)
        assert sorted(rowed.order) == list(range(40))
        assert any("clamped" in w for w in rowed.warnings)
        assert (stage.rows, stage.edges) == (40, build_graph(E, 0.9).nnz)

    def test_zero_confidences(self):
        E = oracle.random_instance(2, m=300, d=8, c=3, cluster_spread=0.1)[0]
        graphed, rowed, _ = self.both(E, ConfidenceVector(np.zeros(300)), None,
                                      SelectionConfig(budget=30, tau=0.9))
        same_result(graphed, rowed)
        assert rowed.order == list(range(30)) and set(rowed.gains) == {0.0}

    def test_one_row(self):
        E = EmbeddingMatrix(np.array([[0.6, 0.8]], dtype=np.float32))
        graphed, rowed, _ = self.both(E, ConfidenceVector([0.7]), None,
                                      SelectionConfig(budget=3, tau=0.9))
        same_result(graphed, rowed)
        assert rowed.order == [0]

    def test_exact_rules_refused(self, orthogonal3):
        E, C, _ = orthogonal3
        stage = simgraph.ball_stage(E, 0.5)
        for rule in ("exact", "lazy"):
            with pytest.raises(ConfigError, match="rows on demand serve only the surrogate"):
                select(stage, C, None, SelectionConfig(budget=1, rule=rule))

    def test_rows_pay_on_a_small_budget_and_the_surrogate_rule_only(self):
        # the candidate pairs of s rows against the build's: about 2 s / m
        E = oracle.random_instance(0, m=2000, d=32, c=10, cluster_spread=0.05,
                                   noise_fraction=0.2)[0]
        stage = simgraph.ball_stage(E, 0.9)
        assert pruner.rows_pay(stage, SelectionConfig(budget=200, tau=0.9))
        assert pruner.rows_pay(stage, SelectionConfig(budget=200, tau=0.9, balanced=True))
        assert not pruner.rows_pay(stage, SelectionConfig(budget=200, tau=0.9, rule="lazy"))
        assert not pruner.rows_pay(stage, SelectionConfig(budget=1000, tau=0.9))
        assert not pruner.rows_pay(stage, SelectionConfig(budget=10 ** 6, tau=0.9))


class TestColdPaths:
    """``select_embeddings`` runs the similarity scan for the surrogate rule
    below ``_PREFETCH_ROWS // 2`` picks, else the ball stage and then the
    rows when ``rows_pay`` holds (below ``_ROWS_SHARE`` of the build's
    pairs) or the build; every path returns ``select``'s result on the
    built graph, bit for bit, and names itself in the ``graph`` block."""

    # (_PREFETCH_ROWS, _ROWS_SHARE) forcing each path: the scan's cut is
    # above every budget, or at 1 with the rows always or never paying
    FORCE = {"scan": (2 ** 40, pruner._ROWS_SHARE), "rows": (2, math.inf), "built": (2, 0.0)}

    INSTANCES = [
        ("clustered", lambda: oracle.random_instance(3, m=600, d=16, c=5, cluster_spread=0.1,
                                                     noise_fraction=0.2)[:3], 100, 0.9),
        ("no-balls", lambda: (random_unit_rows(np.random.default_rng(5), 300, 32),
                              ConfidenceVector(np.random.default_rng(6).uniform(0, 1, 300)),
                              LabelVector(np.random.default_rng(7).integers(0, 4, 300))),
         60, 0.3),
        ("budget-over-m", lambda: oracle.random_instance(1, m=40, d=8, c=3,
                                                         cluster_spread=0.1)[:3], 50, 0.9),
        ("boundary-pair", lambda: (boundary_pair(0.9), ConfidenceVector([0.9, 0.5]),
                                   LabelVector([1, 0])), 2, 0.9),
    ]

    @pytest.mark.parametrize("name,make,budget,tau", INSTANCES, ids=[i[0] for i in INSTANCES])
    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("path", list(FORCE))
    def test_each_path_equals_select_on_the_graph(self, monkeypatch, path, balanced, name, make,
                                                  budget, tau):
        prefetch, share = self.FORCE[path]
        monkeypatch.setattr(pruner, "_PREFETCH_ROWS", prefetch)
        monkeypatch.setattr(pruner, "_ROWS_SHARE", share)
        E, C, labels = make()
        if name == "no-balls":
            assert len(simgraph.ball_stage(E, tau).groups) == 1, "precondition"
        cfg = SelectionConfig(budget=budget, tau=tau, balanced=balanced)
        r, G = pruner.select_embeddings(E, C, labels, cfg), build_graph(E, tau)
        same_result(r, select(G, C, labels, cfg))  # labels unused unless balanced: a warning
        assert any("clamped" in w for w in r.warnings) == (budget > E.m)
        if path == "built":
            assert r.graph == {"source": "built", **simgraph.graph_summary(G),
                               "pairs": simgraph.ball_stage(E, tau).build_pairs()}
        elif path == "rows":  # each row computed holds its self-loop, and a pair per entry
            assert r.graph["source"] == "rows" and r.graph["tau"] == tau
            assert len(r.order) <= r.graph["rows"] <= r.graph["edges"] <= r.graph["pairs"]
        else:
            assert r.graph == {"source": "scan", "tau": tau}

    def test_the_rule_takes_each_path_on_its_side(self, monkeypatch):
        stages, stage = [], pruner.ball_stage
        monkeypatch.setattr(pruner, "ball_stage", lambda *a: stages.append(a) or stage(*a))
        cut = pruner._PREFETCH_ROWS // 2
        assert cut == 128
        big = oracle.random_instance(0, m=2000, d=16, c=10, cluster_spread=0.05,
                                     noise_fraction=0.2)[:3]
        small = oracle.random_instance(0, m=cut - 1, d=8, c=3, cluster_spread=0.1)[:3]
        for (E, C, labels), budget, rule, balanced, path in (
                (big, cut - 1, "surrogate", False, "scan"),
                (big, cut - 1, "surrogate", True, "scan"),
                (big, cut, "surrogate", False, "rows"),
                (big, cut, "surrogate", True, "rows"),
                (big, 10 ** 6, "surrogate", False, "built"),  # clamped to m: every row
                (small, 10 ** 6, "surrogate", False, "scan"),  # clamped to m, below the cut
                (small, 1, "exact", False, "built"),
                (small, 1, "lazy", True, "built")):
            stages.clear()
            cfg = SelectionConfig(budget=budget, tau=0.9, rule=rule, balanced=balanced)
            r = pruner.select_embeddings(E, C, labels, cfg)
            assert (r.graph["source"], len(stages)) == (path, int(path != "scan")), cfg
            assert len(r.order) == min(budget, E.m)
