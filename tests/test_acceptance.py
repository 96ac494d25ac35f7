"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest

from relpick import SelectionConfig, Utility, build_graph, objective, pruner, select
from relpick.cli import main, run_bench
from relpick.dataspec import write_matrix_binary, write_vector_text
from relpick.oracle import brute_force_optimum, naive_objective, random_instance
from relpick.pruner import recompute_cn


def report(n, name, detail):
    print(f"\nACCEPTANCE {n} ({name}): PASS [{detail}]")


def test_criterion_1_oracle_equivalence():
    """pruner.objective == oracle.naive_objective within 1e-7 on 500
    seeded random instances (m <= 60, d <= 16), in under 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(500):
        rng = np.random.default_rng(10_000 + seed)
        m = int(rng.integers(5, 61))
        d = int(rng.integers(2, 17))
        c = int(rng.integers(1, 6))
        tau = float(rng.uniform(0.2, 0.95))
        E, C, _, _ = random_instance(seed, m=m, d=d, c=c,
                                     cluster_spread=float(rng.uniform(0.1, 0.8)),
                                     noise_fraction=float(rng.uniform(0, 0.4)))
        S = list(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
        G = build_graph(E, tau)
        fast = objective(G, C, S, Utility.tanh())
        slow = naive_objective(E, C, tau, S, math.tanh)
        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) <= 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(1, "oracle equivalence", f"500 instances, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_monotonicity_and_submodularity():
    """1,000 nested-set trials per lemma, zero violations beyond 1e-9,
    in under 60 s."""
    t0 = time.perf_counter()
    u = Utility.tanh()
    rng = np.random.default_rng(777)
    mono = sub = 0
    instances = []
    for seed in range(50):
        E, C, _, _ = random_instance(seed, m=30, d=6, c=3,
                                     cluster_spread=0.4, noise_fraction=0.2)
        instances.append((build_graph(E, 0.5), C))
    while mono < 1000 or sub < 1000:
        G, C = instances[int(rng.integers(0, len(instances)))]
        big = list(rng.choice(G.m, size=int(rng.integers(2, G.m - 2)), replace=False))
        small = big[: int(rng.integers(1, len(big)))]
        if mono < 1000:
            assert objective(G, C, small, u) <= objective(G, C, big, u) + 1e-9
            mono += 1
        if sub < 1000:
            outside = [x for x in range(G.m) if x not in big]
            x = int(rng.choice(outside))
            # each marginal from its definition, f(S + x) - f(S)
            gain_small = objective(G, C, small + [x], u) - objective(G, C, small, u)
            gain_big = objective(G, C, big + [x], u) - objective(G, C, big, u)
            assert gain_small >= gain_big - 1e-9
            sub += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, "monotonicity & submodularity", f"1000 trials each, {elapsed:.1f}s")


def test_criterion_3_approximation_bound():
    """Exact greedy reaches (1 - 1/e) of the brute-force optimum on 100
    random instances (m <= 16, s <= 5), in under 2 min."""
    t0 = time.perf_counter()
    u = Utility.tanh()
    worst_ratio = np.inf
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        m = int(rng.integers(6, 17))
        s = int(rng.integers(1, min(6, m)))
        E, C, _, _ = random_instance(seed, m=m, d=6, c=3,
                                     cluster_spread=0.4, noise_fraction=0.2)
        G = build_graph(E, float(rng.uniform(0.3, 0.9)))
        _, opt = brute_force_optimum(G, C, s, u)
        r = select(G, C, None, SelectionConfig(budget=s, rule="exact"))
        greedy_obj = objective(G, C, r.order, u)
        assert greedy_obj >= 0.63212 * opt - 1e-9
        if opt > 0:
            worst_ratio = min(worst_ratio, greedy_obj / opt)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, "(1-1/e) approximation", f"100 instances, worst ratio {worst_ratio:.4f}, {elapsed:.1f}s")


def test_criterion_4_surrogate_fidelity(monkeypatch):
    """Surrogate runs keep the engine's incremental accumulator consistent
    with a from-scratch recompute at every step; the first pick is always
    the argmax confidence, for every valid utility. 200 instances."""
    seen, graph_rows = [], pruner._graph_rows

    def copying_rows(neighbors, conf):  # the engine's update, copying cn after each pick
        update = graph_rows(neighbors, conf)

        def copied(cn, x):
            rows_inc = update(cn, x)
            seen.append(cn.copy())
            return rows_inc
        return copied
    monkeypatch.setattr(pruner, "_graph_rows", copying_rows)
    utilities = [
        ("tanh", SelectionConfig(budget=1, rule="surrogate", utility="tanh")),
        ("identity", SelectionConfig(budget=1, rule="surrogate", utility="identity")),
        ("piecewise", SelectionConfig(
            budget=1, rule="surrogate", utility="piecewise",
            utility_knots=((0.0, 0.0), (1.0, 0.9), (2.0, 1.5), (8.0, 3.0)),
        )),
    ]
    for seed in range(200):
        rng = np.random.default_rng(30_000 + seed)
        m = int(rng.integers(10, 80))
        E, C, _, _ = random_instance(seed, m=m, d=6, c=4,
                                     cluster_spread=0.3, noise_fraction=0.2)
        G = build_graph(E, 0.6)
        # incremental accumulator vs from-scratch at every step
        seen.clear()
        r = select(G, C, None, SelectionConfig(budget=max(2, m // 3), rule="surrogate"))
        assert len(seen) == len(r.order)
        for k, cn in enumerate(seen):
            scratch = recompute_cn(G, C, r.order[: k + 1])
            assert np.abs(cn - scratch).max() <= 1e-9
        # first pick: argmax confidence under every valid utility
        top = int(np.argmax(C.values))
        for _, cfg in utilities:
            assert select(G, C, None, cfg).order[0] == top
    report(4, "surrogate fidelity", "200 instances, 3 utilities")


def test_criterion_5_balanced_selection():
    """Class-balanced selection keeps per-class counts within 1 for
    populous classes and still meets the budget when a class runs out."""
    for c in (2, 5, 10):
        E, C, labels, _ = random_instance(40 + c, m=40 * c, d=8, c=c,
                                          cluster_spread=0.3, noise_fraction=0.1)
        G = build_graph(E, 0.6)
        budget = 7 * c + 3
        r = select(G, C, labels, SelectionConfig(budget=budget, balanced=True))
        assert len(r.order) == budget
        counts = np.bincount(labels.values[r.order], minlength=c)
        assert counts.max() - counts.min() <= 1
    # one class exhausted mid-run: budget still met exactly
    from relpick import ConfidenceVector, EmbeddingMatrix, LabelVector

    m = 30
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((m, 6)).astype(np.float32)
    labels = LabelVector(np.array([0] * 3 + [1] * 27))
    E = EmbeddingMatrix(rows)
    G = build_graph(E, 0.9)
    C = ConfidenceVector(rng.uniform(0.1, 0.9, m))
    r = select(G, C, labels, SelectionConfig(budget=20, balanced=True))
    assert len(r.order) == 20
    assert np.bincount(labels.values[r.order])[0] == 3  # tiny class fully used
    report(5, "balanced selection", "c in {2,5,10} within-1 counts; exhausted class ok")


def test_criterion_6_lazy_exact_identity():
    """Lazy evaluation reproduces exact greedy index-for-index on 200
    instances (m <= 200, s <= 50)."""
    t0 = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(50_000 + seed)
        m = int(rng.integers(10, 201))
        s = int(rng.integers(1, min(51, m + 1)))
        E, C, _, _ = random_instance(seed, m=m, d=8, c=5,
                                     cluster_spread=0.3, noise_fraction=0.2)
        G = build_graph(E, 0.6)
        a = select(G, C, None, SelectionConfig(budget=s, rule="exact"))
        b = select(G, C, None, SelectionConfig(budget=s, rule="lazy"))
        assert a.order == b.order
    report(6, "lazy/exact identity", f"200 instances, {time.perf_counter() - t0:.1f}s")


def test_criterion_7_noise_avoidance():
    """With 20% noisy examples (low confidence, off-cluster), the
    surrogate subset's noise ratio at s = 0.2m stays strictly below 20%
    and is non-decreasing (within 2 points) as the budget grows."""
    m, fractions = 300, (0.2, 0.4, 0.6, 0.8)
    per_seed = []
    for seed in range(20):
        E, C, _, flags = random_instance(seed, m=m, d=16, c=5,
                                         cluster_spread=0.15, noise_fraction=0.2)
        G = build_graph(E, 0.85)
        r = select(G, C, None, SelectionConfig(budget=int(0.8 * m), tau=0.85,
                                               rule="surrogate"))
        order = np.asarray(r.order)
        per_seed.append([float(flags.values[order[: int(f * m)]].mean())
                         for f in fractions])
    avg = np.mean(per_seed, axis=0)
    assert avg[0] < 0.20
    for a, b in zip(avg, avg[1:]):
        assert b >= a - 0.02
    report(7, "noise avoidance", "avg ratios " + "/".join(f"{v:.3f}" for v in avg))


def test_criterion_8_scaling_bench():
    """Per-step wall time: the greedy engine scales near-linearly in m
    and stays flat across steps, while k-center's per-step cost grows
    with the number of centers. Under 5 min."""
    t0 = time.perf_counter()
    sizes = [2048, 4096, 8192, 16384]
    rows = run_bench(sizes, d=32, steps=100, seed=0)
    per = {}
    for r in rows:
        per.setdefault((r["algorithm"], r["m"]), []).append(r["seconds"])
    means = [float(np.mean(per[("prune4rel", m)])) for m in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    assert 0.8 <= slope <= 1.4
    for m in sizes:
        p = per[("prune4rel", m)]
        flatness = np.mean(p[-10:]) / np.mean(p[:10])
        assert flatness <= 2.0
        k = per[("kcenter", m)]
        growth = np.mean(k[-10:]) / np.mean(k[:10])
        assert growth > 2.0  # per-step cost grows with the center count
        assert np.polyfit(np.arange(1, len(k) + 1), k, 1)[0] > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(8, "scaling bench", f"slope {slope:.3f}, {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Two cmd_select runs on identical inputs emit byte-identical JSON
    once wall times are masked."""
    rng = np.random.default_rng(99)
    E, C, _, _ = random_instance(99, m=50, d=8, c=4,
                                 cluster_spread=0.3, noise_fraction=0.2)
    emb = tmp_path / "e.bin"
    conf = tmp_path / "c.txt"
    write_matrix_binary(emb, E.data)
    write_vector_text(conf, C.values)
    argv = ["select", "--embeddings", str(emb), "--confidences", str(conf),
            "--budget", "15", "--tau", "0.6", "--rule", "surrogate"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["wall_times"] = None
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]
    report(9, "CLI determinism", "byte-identical masked JSON")
