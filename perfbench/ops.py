"""Workload instances, the operations each workload times, and the checks
every operation's output must pass.

Each timed operation is one child process (`relpick select`, or a library
call through `libop.py`), started and reaped one at a time; its wall time
is taken around the child and its peak RSS from `os.wait4`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relpick import dataspec, oracle, pruner, simgraph

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

D, CLASSES, NOISE = 64, 10, 0.2
SMOKE_M = 2_000
EXACT_BUDGET = 10
KCENTER_BUDGET = 100
REL_TOL = 1e-9  # trace vs. recompute: same float64 sums, different order


@dataclass(frozen=True)
class Instance:
    m: int
    cluster_spread: float
    tau: float


COLD = Instance(m=40_000, cluster_spread=0.05, tau=0.9)
SWEEP = Instance(m=40_000, cluster_spread=0.024, tau=0.975)
WORKLOADS = {"cold_select": COLD, "cached_sweep": SWEEP, "graph_free": COLD}


@dataclass(frozen=True)
class Files:
    """Paths of one run's instance files, all under its work directory."""

    work: Path

    @property
    def emb(self) -> Path:
        return self.work / "emb.bin"

    @property
    def conf(self) -> Path:
        return self.work / "conf.txt"

    @property
    def labels(self) -> Path:
        return self.work / "labels.txt"

    @property
    def graph(self) -> Path:
        return self.work / "graph.bin"

    @property
    def log(self) -> Path:
        return self.work / "stderr.log"

    def result(self, op: str, pass_id: str) -> Path:
        return self.work / f"{op}-{pass_id}.json"


@dataclass
class Data:
    """One generated instance, kept in memory for the checks."""

    E: dataspec.EmbeddingMatrix
    C: dataspec.ConfidenceVector
    labels: dataspec.LabelVector
    noise: dataspec.NoiseFlagVector
    tau: float

    @property
    def m(self) -> int:
        return self.E.m


def child_env() -> dict:
    """The caller's environment with `src/` importable. BLAS and OpenMP
    thread settings pass through unchanged."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def generate(inst: Instance, m: int, seed: int, files: Files) -> Data:
    """Generate the instance from the seed and write the files the ops read."""
    E, C, labels, noise = oracle.random_instance(
        seed, m=m, d=D, c=CLASSES, cluster_spread=inst.cluster_spread, noise_fraction=NOISE
    )
    write_files(E, C, labels, files)
    return Data(E, C, labels, noise, inst.tau)


def write_files(E, C, labels, files: Files) -> None:
    dataspec.write_matrix_binary(files.emb, E.data)
    dataspec.write_vector_text(files.conf, C.values)
    dataspec.write_vector_text(files.labels, labels.values)


def graph_argv(files: Files, tau: float) -> list[str]:
    return [sys.executable, "-m", "relpick.cli", "graph", "--embeddings", str(files.emb),
            "--tau", repr(tau), "--out", str(files.graph)]


@dataclass(frozen=True)
class Op:
    """One timed operation. `argv(pass_id)` writes its result to
    `files.result(name, pass_id)`."""

    name: str
    budget: int
    args: tuple[str, ...]
    files: Files

    def argv(self, pass_id: str) -> list[str]:
        return [*self.args, "--out", str(self.files.result(self.name, pass_id))]


def plan(workload: str, files: Files, data: Data) -> list[Op]:
    """The operations one pass of a workload runs, in order."""
    s = data.m // 10
    tau = repr(data.tau)
    if workload == "graph_free":
        lib = (sys.executable, str(HERE / "libop.py"))
        return [
            Op("streaming", s, (*lib, "streaming", "--embeddings", str(files.emb),
                                "--confidences", str(files.conf), "--tau", tau,
                                "--budget", str(s)), files),
            Op("kcenter", KCENTER_BUDGET, (*lib, "kcenter", "--embeddings", str(files.emb),
                                           "--budget", str(KCENTER_BUDGET)), files),
        ]
    cli = (sys.executable, "-m", "relpick.cli", "select", "--embeddings", str(files.emb),
           "--confidences", str(files.conf), "--tau", tau)
    if workload == "cold_select":
        return [Op("select", s, (*cli, "--budget", str(s)), files)]
    cached = (*cli, "--graph", str(files.graph))
    return [
        Op("select", s, (*cached, "--budget", str(s)), files),
        Op("balanced", s, (*cached, "--budget", str(s), "--balanced",
                           "--labels", str(files.labels)), files),
        Op("lazy", s, (*cached, "--budget", str(s), "--rule", "lazy"), files),
        Op("exact", EXACT_BUDGET, (*cached, "--budget", str(EXACT_BUDGET),
                                   "--rule", "exact"), files),
    ]


@dataclass
class OpRecord:
    """One attempted operation and everything the checks found wrong."""

    op: str
    budget: int
    pass_id: str
    seconds: float
    rss_mb: float | None = None
    exit_code: int | None = None
    order: list | None = None
    trace: list | None = None
    wall_times: list | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def digest(self) -> str | None:
        return order_digest(self.order) if self.order is not None else None

    def summary(self) -> dict:
        return {"op": self.op, "pass": self.pass_id, "seconds": self.seconds,
                "rss_mb": self.rss_mb, "exit_code": self.exit_code,
                "digest": self.digest, "problems": self.problems}


def order_digest(order) -> str:
    return hashlib.sha256(json.dumps([int(i) for i in order]).encode()).hexdigest()[:16]


def run_op(op: Op, pass_id: str, env: dict) -> OpRecord:
    seconds, rss_mb, code = run_child(op.argv(pass_id), env, op.files.log)
    rec = OpRecord(op.name, op.budget, pass_id, seconds, rss_mb, code)
    if code != 0:
        rec.problems.append(f"exit code {code}")
        return rec
    try:
        payload = json.loads(op.files.result(op.name, pass_id).read_text())
        rec.order = payload["order"]
        rec.trace = payload.get("objective_trace")
        rec.wall_times = payload["wall_times"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        rec.problems.append(f"unreadable result: {e!r}")
    return rec


def order_problems(order, budget: int, m: int) -> list[str]:
    problems = []
    if len(order) != min(budget, m):
        problems.append(f"order has {len(order)} ids, expected {min(budget, m)}")
    if not all(isinstance(i, int) and 0 <= i < m for i in order):
        problems.append("order holds an id that is not an integer in [0, m)")
    elif len(set(order)) != len(order):
        problems.append("order repeats an id")
    return problems


def trace_problems(trace, n: int, recomputed: float) -> list[str]:
    if trace is None or len(trace) != n:
        return [f"objective trace has {0 if trace is None else len(trace)} entries, expected {n}"]
    problems = []
    if np.any(np.diff(np.asarray(trace, dtype=np.float64)) < 0):
        problems.append("objective trace decreases")
    if not math.isclose(trace[-1], recomputed, rel_tol=REL_TOL, abs_tol=REL_TOL):
        problems.append(f"last trace entry {trace[-1]!r} != evaluate_subset {recomputed!r}")
    return problems


def boundary_pair(tau: float) -> dataspec.EmbeddingMatrix | None:
    """Two rows whose cosine is below tau but rounds to float32(tau), or
    None if float32(tau) >= tau (then no such weight exists)."""
    t32 = np.float32(tau)
    if float(t32) >= tau:
        return None
    # rows e1 and (1, t): cos = 1 / sqrt(1 + t^2); step t one float32 ulp
    # at a time until cos < tau rounds to float32(tau)
    t = np.float32(math.sqrt(1.0 / float(t32) ** 2 - 1.0))
    for _ in range(64):
        E = dataspec.EmbeddingMatrix(np.array([[1.0, 0.0], [1.0, t]], dtype=np.float32))
        U = simgraph.unit_rows(E)
        cos = float((U @ U.T)[0, 1])
        if cos < tau and np.float32(cos) == t32:
            return E
        t = np.nextafter(t, np.float32(np.inf if cos >= tau else -np.inf))
    raise RuntimeError(f"no float32 boundary pair found for tau={tau!r}")


def keeps_boundary_edges(tau: float) -> bool:
    """Whether `simgraph.build_graph` keeps an edge whose similarity is below
    tau but rounds to float32(tau), so the checks follow the program's own
    rule at the float32 boundary."""
    E = boundary_pair(tau)
    return E is not None and simgraph.build_graph(E, tau).nnz == 4


def rows_graph(U: np.ndarray, rows, tau: float, keep_boundary: bool,
               block: int = 512) -> simgraph.NeighborGraph:
    """A graph holding only the given rows' edges, built from the definition
    (float64 cosine, clipped, self-loop 1, float32 weights). Other rows are
    empty, which is all `evaluate_subset` reads for a subset of `rows`."""
    m = U.shape[0]
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    counts = np.zeros(m, dtype=np.int64)
    idx_chunks, w_chunks = [], []
    for lo in range(0, rows.size, block):
        r = rows[lo:lo + block]
        sims = U[r] @ U.T
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[np.arange(r.size), r] = 1.0
        w32 = sims.astype(np.float32)
        keep = w32 >= np.float32(tau) if keep_boundary else w32.astype(np.float64) >= tau
        i, j = np.nonzero(keep)
        counts[r] = np.bincount(i, minlength=r.size)
        idx_chunks.append(j.astype(np.int64))
        w_chunks.append(w32[i, j])
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return simgraph.NeighborGraph(m=m, tau=float(tau), indptr=indptr,
                                  indices=np.concatenate(idx_chunks),
                                  weights=np.concatenate(w_chunks))


class Checker:
    """Recomputes selection quality with `evaluate_subset`: on the graph
    cache when the workload has one, else on rows built for the subset."""

    def __init__(self, data: Data, graph: simgraph.NeighborGraph | None = None):
        self.data = data
        self.graph = graph
        self.u = pruner.Utility.tanh()
        self._reports: dict[str, pruner.SubsetReport] = {}
        self._U = None
        self._keep = None

    def report(self, order) -> pruner.SubsetReport:
        key = order_digest(order)
        if key not in self._reports:
            G = self.graph
            if G is None:
                if self._U is None:
                    self._U = simgraph.unit_rows(self.data.E)
                    self._keep = keeps_boundary_edges(self.data.tau)
                G = rows_graph(self._U, order, self.data.tau, self._keep)
            self._reports[key] = pruner.evaluate_subset(
                G, self.data.C, order, self.u, self.data.noise)
        return self._reports[key]


def verify(records: list[OpRecord], checker: Checker) -> None:
    """Append every check failure to the record it belongs to: order shape,
    objective trace against a recompute, lazy == exact on the exact prefix,
    and one order digest per operation across every run of this seed."""
    m = checker.data.m
    for rec in records:
        if rec.order is None:
            continue
        rec.problems += order_problems(rec.order, rec.budget, m)
        if rec.problems:
            continue
        if rec.op == "kcenter":
            if rec.order[0] != 0:
                rec.problems.append("k-center does not start at seed index 0")
        else:
            obj = checker.report(rec.order).objective
            rec.problems += trace_problems(rec.trace, len(rec.order), obj)
    first: dict[str, str] = {}
    for rec in records:
        if rec.digest is None:
            continue
        ref = first.setdefault(rec.op, rec.digest)
        if rec.digest != ref:
            rec.problems.append(f"order digest {rec.digest} != first run's {ref}")
    by_pass: dict[str, dict[str, OpRecord]] = {}
    for rec in records:
        by_pass.setdefault(rec.pass_id, {})[rec.op] = rec
    for ops in by_pass.values():
        lazy, exact = ops.get("lazy"), ops.get("exact")
        if lazy and exact and lazy.order is not None and exact.order is not None:
            if lazy.order[:len(exact.order)] != exact.order:
                lazy.problems.append("lazy differs from exact on the exact rule's picks")
