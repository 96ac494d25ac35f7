"""The traced run: per-layer metrics from spans around in-process calls.

It sets the workload up, times one untraced pass of child processes, then
repeats the pass in-process, calling each module's public functions in
the order the CLI (or `libop.py`) calls them with a span around each
call. A few calls outside the CLI's order follow, each in its own span:
`unit_rows`, a bare GEMM reference, `validate` and `evaluate_subset`.

A layer's time is the summed self time of its spans: duration minus the
part covered by child spans. A metric for a layer the workload does not
exercise reads 0 (see README.md).
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import libop
import ops
from relpick import oracle, pruner, simgraph
from relpick.dataspec import (
    SelectionConfig,
    ingest_embeddings,
    load_confidences,
    load_labels,
)
from relpick.errors import RelpickError

GEMM_BLOCK_ROWS = 1024  # the row block `build_graph` uses today
IMPORT_PROBES = 3

PER_LAYER = {  # name: (unit, better); BENCHMARK.json lists the same
    "cli.import_s": ("s", "lower"),
    "cli.write_result_s": ("s", "lower"),
    "dataspec.ingest_embeddings_s": ("s", "lower"),
    "dataspec.load_confidences_s": ("s", "lower"),
    "dataspec.load_labels_s": ("s", "lower"),
    "simgraph.unit_rows_s": ("s", "lower"),
    "simgraph.build_graph_s": ("s", "lower"),
    "simgraph.gemm_ref_s": ("s", "lower"),
    "simgraph.threshold_est_s": ("s", "lower"),
    "simgraph.build_gflop": ("GFLOP", "lower"),
    "simgraph.build_gflop_per_s": ("GFLOP/s", "higher"),
    "simgraph.nnz": ("count", "lower"),
    "simgraph.degree_mean": ("count", "lower"),
    "simgraph.degree_max": ("count", "lower"),
    "simgraph.edges_below_tau": ("count", "lower"),
    "simgraph.save_graph_s": ("s", "lower"),
    "simgraph.cache_mb": ("MB", "lower"),
    "simgraph.load_graph_s": ("s", "lower"),
    "simgraph.validate_s": ("s", "lower"),
    "pruner.select_surrogate_s": ("s", "lower"),
    "pruner.select_balanced_s": ("s", "lower"),
    "pruner.select_lazy_s": ("s", "lower"),
    "pruner.select_exact_s": ("s", "lower"),
    "pruner.surrogate_untimed_frac": ("ratio", "lower"),
    "pruner.select_streaming_s": ("s", "lower"),
    "pruner.streaming_step_p50_us": ("us", "lower"),
    "pruner.objective": ("score", "higher"),
    "pruner.coverage": ("ratio", "higher"),
    "pruner.noise_ratio": ("ratio", "lower"),
    "baselines.select_kcenter_s": ("s", "lower"),
    "oracle.random_instance_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "balanced_s": ("s", "lower"),
    "lazy_s": ("s", "lower"),
    "exact_s": ("s", "lower"),
    "streaming_s": ("s", "lower"),
    "kcenter_s": ("s", "lower"),
}

# op name -> (rule, balanced, span name) of the `relpick select` call it mirrors
SELECT_OPS = {
    "select": ("surrogate", False, "pruner.select_surrogate"),
    "balanced": ("surrogate", True, "pruner.select_balanced"),
    "lazy": ("lazy", False, "pruner.select_lazy"),
    "exact": ("exact", False, "pruner.select_exact"),
}


class Tracer:
    """Spans kept in memory and written out when the run ends. Each holds
    name, start, end, parent span id and op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = "setup"

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, ops=None) -> dict[str, float]:
        """Summed self time per span name, over spans of the given op ids."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if ops is None or s["op"] in ops:
                out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return out


def select_op(name: str, budget: int, files: ops.Files, tau: float, cached: bool,
              out: Path, span):
    """In-process mirror of `relpick select` (cli.cmd_select), call for call."""
    rule, balanced, span_name = SELECT_OPS[name]
    with span("dataspec.ingest_embeddings"):
        E = ingest_embeddings(files.emb)
    if cached:
        with span("simgraph.load_graph"):
            G = simgraph.load_graph(files.graph)
    else:
        with span("simgraph.build_graph"):
            G = simgraph.build_graph(E, tau)
    with span("dataspec.load_confidences"):
        C = load_confidences(files.conf)
    labels = None
    if balanced:
        with span("dataspec.load_labels"):
            labels = load_labels(files.labels)
    cfg = SelectionConfig(budget=budget, tau=tau, rule=rule, balanced=balanced)
    with span(span_name):
        result = pruner.select(G, C, labels, cfg)
    with span("cli.write_result"):
        Path(out).write_text(result.to_json() + "\n")
    return result, G


def gemm_ref(U: np.ndarray) -> None:
    """Bare float64 U @ U.T in the build's row blocks: the build's GEMM floor."""
    m = U.shape[0]
    buf = np.empty((min(GEMM_BLOCK_ROWS, m), m))
    for lo in range(0, m, GEMM_BLOCK_ROWS):
        block = U[lo:lo + GEMM_BLOCK_ROWS]
        np.matmul(block, U.T, out=buf[:block.shape[0]])


def traced_run(workload: str, inst: ops.Instance, m: int, seed: int, files: ops.Files,
               env: dict, records: list[ops.OpRecord]) -> tuple[dict, Tracer]:
    """Run the traced workload; append every attempted op to `records` and
    return the per-layer metrics {name: value} and the tracer."""
    tr = Tracer()
    with tr.span("oracle.random_instance"):
        E, C, labels, noise = oracle.random_instance(
            seed, m=m, d=ops.D, c=ops.CLASSES, cluster_spread=inst.cluster_spread,
            noise_fraction=ops.NOISE)
    with tr.span("bench.write_instance"):
        ops.write_files(E, C, labels, files)
    data = ops.Data(E, C, labels, noise, inst.tau)
    G = None
    if workload == "cached_sweep":  # mirrors `relpick graph --out` (cli.cmd_graph)
        with tr.span("bench.graph_cache"):
            with tr.span("dataspec.ingest_embeddings"):
                E_in = ingest_embeddings(files.emb)
            with tr.span("simgraph.build_graph"):
                G = simgraph.build_graph(E_in, inst.tau)
            with tr.span("simgraph.save_graph"):
                simgraph.save_graph(files.graph, G)
            simgraph.degree_stats(G)

    plan = ops.plan(workload, files, data)
    t0 = time.perf_counter()
    untraced = [ops.run_op(op, "0", env) for op in plan]
    run_s = time.perf_counter() - t0
    records += untraced

    tr.op = "extra"
    imports = []
    for _ in range(IMPORT_PROBES):
        with tr.span("cli.import"):
            imports.append(ops.run_child([sys.executable, "-c", "import relpick.cli"],
                                         env, files.log)[0])

    results: dict[str, ops.OpRecord] = {}
    loaded = None
    t0 = time.perf_counter()
    for k, op in enumerate(plan):
        tr.op = f"op{k}"
        out = files.result(op.name, "traced")
        rec = ops.OpRecord(op.name, op.budget, "traced", 0.0)
        with tr.span(f"op.{op.name}") as sp:
            try:
                if op.name == "kcenter":
                    order, rec.wall_times = libop.kcenter(files.emb, op.budget, out, tr.span)
                    rec.order = order.tolist()
                else:
                    if op.name == "streaming":
                        res = libop.streaming(files.emb, files.conf, inst.tau, op.budget, out,
                                              tr.span)
                    elif workload == "cached_sweep":
                        res, loaded = select_op(op.name, op.budget, files, inst.tau, True, out,
                                                tr.span)
                    else:
                        res, G = select_op(op.name, op.budget, files, inst.tau, False, out,
                                           tr.span)
                    rec.order, rec.trace, rec.wall_times = (
                        list(res.order), list(res.objective_trace), list(res.wall_times))
            except RelpickError as e:
                rec.problems.append(f"raised {e!r}")
        rec.seconds = sp["end"] - sp["start"]
        results[op.name] = rec
        records.append(rec)
    traced_s = time.perf_counter() - t0

    tr.op = "extra"
    if G is not None:
        with tr.span("simgraph.unit_rows"):
            U = simgraph.unit_rows(E)
        with tr.span("simgraph.gemm_ref"):
            gemm_ref(U)
    if loaded is not None:
        with tr.span("simgraph.validate"):
            loaded.validate()
    checker = ops.Checker(data, G)
    quality = None
    head = results.get("select") or results.get("streaming")
    if head is not None and head.order is not None and not head.problems:
        with tr.span("pruner.evaluate_subset"):
            quality = checker.report(head.order)
    ops.verify(records, checker)

    everything = tr.self_times()
    in_pass = tr.self_times({f"op{k}" for k in range(len(plan))})
    untraced_s = {rec.op: rec.seconds for rec in untraced}
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics["cli.import_s"] = statistics.median(imports)
    for name in ("cli.write_result", "dataspec.ingest_embeddings", "dataspec.load_confidences",
                 "dataspec.load_labels", "simgraph.load_graph", "pruner.select_surrogate",
                 "pruner.select_balanced", "pruner.select_lazy", "pruner.select_exact",
                 "pruner.select_streaming", "baselines.select_kcenter"):
        metrics[name + "_s"] = in_pass.get(name, 0.0)
    for name in ("simgraph.unit_rows", "simgraph.build_graph", "simgraph.gemm_ref",
                 "simgraph.save_graph", "simgraph.validate", "oracle.random_instance"):
        metrics[name + "_s"] = everything.get(name, 0.0)
    if G is not None:
        build = metrics["simgraph.build_graph_s"]
        metrics["simgraph.threshold_est_s"] = (
            build - metrics["simgraph.unit_rows_s"] - metrics["simgraph.gemm_ref_s"])
        metrics["simgraph.build_gflop"] = 2.0 * m * m * ops.D / 1e9  # computed, not counted
        metrics["simgraph.build_gflop_per_s"] = metrics["simgraph.build_gflop"] / build
        stats = simgraph.degree_stats(G)
        metrics["simgraph.nnz"] = G.nnz
        metrics["simgraph.degree_mean"] = stats.mean
        metrics["simgraph.degree_max"] = stats.max
        metrics["simgraph.edges_below_tau"] = int(
            np.count_nonzero(G.weights.astype(np.float64) < G.tau))
    if workload == "cached_sweep":
        metrics["simgraph.cache_mb"] = files.graph.stat().st_size / 1e6
    surrogate = results.get("select")
    if surrogate is not None and surrogate.wall_times and metrics["pruner.select_surrogate_s"]:
        metrics["pruner.surrogate_untimed_frac"] = (
            1.0 - sum(surrogate.wall_times) / metrics["pruner.select_surrogate_s"])
    stream = results.get("streaming")
    if stream is not None and stream.wall_times:
        metrics["pruner.streaming_step_p50_us"] = statistics.median(stream.wall_times) * 1e6
    if quality is not None:
        metrics["pruner.objective"] = quality.objective
        metrics["pruner.coverage"] = quality.coverage
        metrics["pruner.noise_ratio"] = quality.noise_ratio
    metrics["bench.trace_overhead_frac"] = traced_s / run_s - 1.0
    for name in ("balanced", "lazy", "exact", "streaming", "kcenter"):
        metrics[name + "_s"] = untraced_s.get(name, 0.0)
    return metrics, tr
