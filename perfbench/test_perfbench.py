"""Tests of the benchmark itself, on m = 2000 smoke instances.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ops  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from relpick import oracle, simgraph  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload, seed, trace) -> dict:
    return json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}-smoke.json").read_text())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == traced.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_workload_is_correct_and_reports_every_metric(workload, trace):
    out = last_json(bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                          "--trace", str(trace), "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = traced.PER_LAYER if trace else run.E2E_UNITS
    assert set(out["metrics"]) == set(expected)
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    env = report(workload, 0, trace)["environment"]
    assert {"numpy", "blas", "nproc", "python", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS", "git_commit"} <= set(env)


def test_same_seed_gives_same_orders_and_another_seed_works():
    digests = []
    for _ in range(2):
        last_json(bench("--workload", "cached_sweep", "--seed", "0", "--seconds", "0",
                        "--smoke"))
        digests.append({o["op"]: o["digest"] for o in report("cached_sweep", 0, 0)["ops"]})
    assert digests[0] == digests[1]
    out = last_json(bench("--workload", "cached_sweep", "--seed", "1", "--seconds", "0",
                          "--smoke"))
    assert out["correct"] is True
    assert {o["op"]: o["digest"] for o in report("cached_sweep", 1, 0)["ops"]} != digests[0]


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "cold_select", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    files = ops.Files(tmp_path_factory.mktemp("inst"))
    data = ops.generate(ops.COLD, 300, 0, files)
    return files, data


def selection(data, rule="surrogate", budget=30):
    from relpick import pruner
    from relpick.dataspec import SelectionConfig

    G = simgraph.build_graph(data.E, data.tau)
    res = pruner.select(G, data.C, None, SelectionConfig(budget=budget, tau=data.tau, rule=rule))
    return G, res


def record(res, op="select", pass_id="0", budget=30) -> ops.OpRecord:
    return ops.OpRecord(op, budget, pass_id, 1.0, order=list(res.order),
                        trace=list(res.objective_trace))


def test_good_result_passes_every_check(small):
    _, data = small
    _, res = selection(data)
    rec = record(res)
    ops.verify([rec], ops.Checker(data))
    assert rec.problems == []


@pytest.mark.parametrize("corrupt, problem", [
    (lambda r: r.order.__setitem__(1, r.order[0]), "repeats"),
    (lambda r: r.order.append(10**9), "expected 30"),
    (lambda r: r.order.__setitem__(0, -1), "integer in [0, m)"),
    (lambda r: r.trace.__setitem__(-2, r.trace[-1] + 1.0), "decreases"),
    (lambda r: r.trace.__setitem__(-1, r.trace[-1] * (1 + 1e-6)), "evaluate_subset"),
])
def test_bad_result_counts_as_failed_op(small, corrupt, problem):
    _, data = small
    _, res = selection(data)
    rec = record(res)
    corrupt(rec)
    ops.verify([rec], ops.Checker(data))
    assert rec.failed and any(problem in p for p in rec.problems), rec.problems


def test_nonzero_exit_counts_as_failed_op(small):
    files, _ = small
    op = ops.Op("select", 30, (sys.executable, "-c", "import sys; sys.exit(3)"), files)
    rec = ops.run_op(op, "0", ops.child_env())
    assert rec.failed and rec.problems == ["exit code 3"] and rec.rss_mb > 0


def test_order_change_between_runs_and_lazy_exact_mismatch_fail(small):
    _, data = small
    _, res = selection(data)
    first, second = record(res, pass_id="0"), record(res, pass_id="1")
    second.order[0], second.order[1] = second.order[1], second.order[0]
    lazy = record(res, op="lazy", pass_id="0")
    _, exact_res = selection(data, rule="exact", budget=10)
    exact = record(exact_res, op="exact", pass_id="0", budget=10)
    exact.order = exact.order[::-1]
    ops.verify([first, second, lazy, exact], ops.Checker(data))
    assert not first.failed
    assert any("digest" in p for p in second.problems)
    assert any("lazy differs" in p for p in lazy.problems)


def assert_rows_match_program(E, rows, tau):
    G = simgraph.build_graph(E, tau)
    R = ops.rows_graph(simgraph.unit_rows(E), rows, tau, ops.keeps_boundary_edges(tau))
    for i in rows:
        for a, b in zip(G.neighbors(i), R.neighbors(i)):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("tau", [0.9, 0.975, 0.5])
def test_checker_rows_match_program_graph(tau):
    E, *_ = oracle.random_instance(3, m=400, d=8, c=3, cluster_spread=0.05)
    assert_rows_match_program(E, np.arange(0, 400, 7), tau)


def test_checker_follows_program_on_float32_boundary_edge():
    assert ops.boundary_pair(0.975) is None  # float32(0.975) > 0.975
    E = ops.boundary_pair(0.9)
    assert_rows_match_program(E, np.array([0, 1]), 0.9)
