"""Greedy subset selection maximizing total neighborhood confidence.

The objective of a subset S is sum_i u(cn_i(S)) where cn_i(S) is the
similarity-weighted sum of confidences of i's selected neighbors and u
is a non-decreasing concave utility with u(0) = 0 (tanh by default).

Every selection runs one greedy loop, ``_greedy``, built from a neighbor
provider and a pick policy. The provider adds each pick's weighted
confidence to the accumulator: ``_graph_rows``, the one sparse update,
over a row source, the CSR row slices of a prebuilt graph or graph rows
computed as the picks need them (both through ``select``), or an O(m d)
on-the-fly similarity scan.
Only the loop knows the label classes: it forms the groups, all rows or
one per present class (balanced), takes them round-robin, drops a class
once all its rows are picked, and names to the policy the group to pick
from. The ``surrogate`` policy picks the
candidate of highest self gain u(cn[x] + C[x]) - u(cn[x]) (the method's
cheap default) from one gains array, refreshed only where cn moved, at
the pick's neighbors. The ``exact`` and ``lazy`` rules are one policy,
CELF (Minoux 1978; Leskovec et al., KDD 2007), over exact objective
marginals (the classic (1 - 1/e) greedy guarantee): the objective is
submodular, so a stale marginal is an upper bound, and refreshing heap
tops until the freshest stays on top picks what a full pass would.

One routine, ``_exact_gains``, computes every exact marginal: the first
full pass and each CELF batch. A row's marginal is its own CSR segment
sum, so the two agree bit for bit. Each call cuts its rows into runs
holding at most ``_FILL_EDGES`` stored edges (a larger row is a run of
its own) and writes each run's marginals into one output array, so its
temporaries stay bounded whatever m. A surrogate step costs a refresh
over the pick's neighbors plus one O(m) argmax; the similarity scan's
update is dense, so its step stays O(m d), the same at every step. On
rows computed on demand the steps are uneven: the step whose pick has
no row yet makes one call of the ball stage for up to _PREFETCH_ROWS
rows and carries the work of the steps after it.

``select`` on a ``simgraph.BallStage`` runs the surrogate rule, plain or
balanced, on the rows that the stage computes on demand. A surrogate
step reads the pick's row alone, and the policy keeps every self gain
exact in the gains array that ``select`` hands to both, so the row
source ``_rows_on_demand`` computes a row only when it is picked,
together with the rows of highest gain that have none, up to
_PREFETCH_ROWS in all and no more than the picks still to make (one
stage call), and drops it once picked. The rows equal
``build_graph``'s, so the order, gains, trace, config and warnings
equal ``select``'s on the built graph, bit for bit.

``select_embeddings`` is the one entry point for a cold run, from
embeddings with no graph at hand. It chooses the path by one rule and
records it in the result's ``graph`` block; every path returns
``select``'s result on the built graph, bit for bit:
- the surrogate rule, plain or balanced, on a budget clamped to m below
  _PREFETCH_ROWS // 2 (128) picks runs the similarity scan, and no ball
  stage;
- otherwise the ball stage runs, and ``rows_pay`` takes the rows when
  the budget times ``BallStage.row_pairs`` lies below _ROWS_SHARE (0.35)
  of ``BallStage.build_pairs``, a count from the input before any
  product; else the whole graph is built. The exact and lazy rules read
  every row in CELF's first pass and always build.
The ratio is about 2 s / m on clustered rows. On a 2-vCPU VM
(``tools/cold_paths.py``) the rows and the build crossed at ratios of
about 0.36 on wide classes (m = 20k, d = 64, spread 0.1, tau 0.7), 0.4
and 1.8 on criterion 8's instance (d = 32, spread 0.1, tau 0.8) at m =
2048 and 16384, and above 0.6 on the ``cold_select`` instance (m = 40k,
d = 64, spread 0.05, tau 0.9), so 0.35 keeps every shape measured at
budgets up to 4000 on its faster side. At larger budgets it is not:
on clustered rows it builds from about s = 0.19 m on, while the rows
stay faster up to about 0.4 m. Before the stage no count tells
``cold_select`` at 100 picks, where the rows beat the scan, from wide
classes at 512, where the scan wins; 128 was the best single budget
cut over the shapes measured.

All ties break toward the lowest index; the accumulator is float64 and
updated over neighbors in index order, so runs are deterministic.

``check_inputs`` is the one check that the confidence, label and
noise-flag vectors hold one entry per example, and that balanced
selection has labels. ``select``, ``select_embeddings``,
``evaluate_subset``, the reference accumulator ``recompute_cn`` (and
``objective`` through it) and the oracle's scorers call it before any
work, and the CLI calls it before it builds or loads a graph.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .errors import ConfigError, DataError
from .dataspec import (
    ConfidenceVector,
    LabelVector,
    NoiseFlagVector,
    SelectionConfig,
    SelectionResult,
)
from .simgraph import (BallStage, NeighborGraph, ball_stage, edge_floor, edge_weights,
                       graph_summary, unit_rows)

_ALL = slice(None)
_CELF_BATCH = 16  # stale heap tops refreshed per call
_FILL_EDGES = 1 << 18  # most stored edges per block of any exact-marginal call
_PREFETCH_ROWS = 256  # rows per ``BallStage`` call of ``_rows_on_demand``; half: the scan's cut
_ROWS_SHARE = 0.35  # ``rows_pay``'s cut, see the module docstring


class Utility:
    """Non-decreasing concave map with u(0) = 0, applied elementwise."""

    def __init__(self, kind: str, fn):
        self.kind = kind
        self._fn = fn

    def __call__(self, z):
        return self._fn(np.asarray(z, dtype=np.float64))

    @classmethod
    def tanh(cls) -> "Utility":
        return cls("tanh", np.tanh)

    @classmethod
    def identity(cls) -> "Utility":
        return cls("identity", np.positive)

    @classmethod
    def piecewise(cls, knots) -> "Utility":
        """Piecewise-linear utility through (x, y) knots on [0, inf);
        constant beyond the last knot. Validated numerically."""
        pts = sorted((float(x), float(y)) for x, y in knots)
        if not pts or pts[0] != (0.0, 0.0):
            raise ConfigError("piecewise utility must start at knot (0, 0)")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        if np.unique(xs).size != xs.size:
            raise ConfigError("piecewise utility knots must have distinct x values")
        u = cls("piecewise", lambda z: np.interp(z, xs, ys))
        u.validate_shape(grid_max=float(xs[-1]) * 1.5 + 1.0)
        return u

    def validate_shape(self, grid_max: float = 8.0) -> None:
        """Check u(0)=0, monotone non-decreasing, concave on a 201-point grid."""
        grid = np.linspace(0.0, grid_max, 201)
        vals = self(grid)
        if not np.isfinite(vals).all():
            raise ConfigError(f"{self.kind} utility produced non-finite values")
        if abs(float(self(0.0))) > 1e-12:
            raise ConfigError(f"{self.kind} utility violates u(0) = 0")
        d1 = np.diff(vals)
        if np.any(d1 < -1e-12):
            raise ConfigError(f"{self.kind} utility is not non-decreasing")
        if np.any(np.diff(d1) > 1e-12):
            raise ConfigError(f"{self.kind} utility is not concave on [0, {grid_max}]")


UTILITIES = {"tanh": Utility.tanh, "identity": Utility.identity}  # by name, knot-free


def utility_from_config(cfg: SelectionConfig) -> Utility:
    """The configured utility, shape-checked."""
    if cfg.utility == "piecewise":
        u = Utility.piecewise(cfg.utility_knots)
    else:
        u = UTILITIES[cfg.utility]()
    u.validate_shape()
    return u


def recompute_cn(G: NeighborGraph, C: ConfidenceVector, S) -> np.ndarray:
    """From-scratch accumulator for a subset; reference for the
    incremental updates. The confidences and the subset are checked
    (``check_inputs``, ``check_subset``)."""
    check_inputs(G.m, C)
    return _accumulate(G, C, check_subset(G.m, S))


def _accumulate(G: NeighborGraph, C: ConfidenceVector, idx: list[int]) -> np.ndarray:
    cn = np.zeros(G.m, dtype=np.float64)
    for x in sorted(idx):
        js, ws = G.neighbors(x)
        cn[js] += ws.astype(np.float64) * C.values[x]
    return cn


def _check_id(m: int, i) -> int:
    """i as an int in [0, m), else DataError."""
    try:
        i = operator.index(i)  # unlike int(), refuses 1.5 and "1"
    except TypeError:
        raise DataError(f"id {i!r} is not an integer") from None
    if not (0 <= i < m):
        raise DataError(f"index {i} out of range [0, {m})")
    return i


def check_subset(m: int, S) -> list[int]:
    """S as a list of ints, each in [0, m) and none repeated, else DataError."""
    try:
        idx = [_check_id(m, i) for i in S]
    except TypeError:  # S itself is not iterable
        raise DataError("subset must be a sequence of integer ids") from None
    if len(set(idx)) != len(idx):
        raise DataError("subset contains duplicate indices")
    return idx


def check_inputs(m: int, C: ConfidenceVector, labels: LabelVector | None = None,
                 cfg: SelectionConfig | None = None,
                 noise_flags: NoiseFlagVector | None = None) -> None:
    """Refuse inputs that do not describe one population of m examples:
    balanced selection (``cfg.balanced``) without labels is a
    ConfigError, and a confidence, label or noise-flag vector that does
    not hold exactly m entries is a DataError."""
    if cfg is not None and cfg.balanced and labels is None:
        raise ConfigError("balanced selection requires labels")
    for what, v in (("confidence", C), ("label", labels), ("noise-flag", noise_flags)):
        if v is not None and v.m != m:
            raise DataError(f"{what} length {v.m} does not match {m} examples")


def objective(G: NeighborGraph, C: ConfidenceVector, S, u: Utility) -> float:
    """Total utility of the subset's neighborhood confidence, computed
    from scratch. A confidence vector of another length than the graph's
    is a DataError."""
    return float(u(recompute_cn(G, C, S)).sum())


def _marginals(cn: np.ndarray, js: np.ndarray, inc: np.ndarray, starts: np.ndarray,
               u: Utility) -> np.ndarray:
    """Segment sums of u(cn[j] + inc) - u(cn[j]) over the stored edges of
    consecutive CSR rows, one segment per row from ``starts``. With inc =
    w(x, j) C[x], row x's sum is its exact objective marginal. Segments
    must be non-empty: every row holds its self-loop."""
    before = cn[js]
    return np.add.reduceat(u(before + inc) - u(before), starts)


def _self_gains(conf: np.ndarray, u: Utility):
    return lambda cn, rows: u(cn[rows] + conf[rows]) - u(cn[rows])


def _exact_gains(G: NeighborGraph, conf: np.ndarray, u: Utility):
    """Exact marginals at ``rows``: all rows (``_ALL``) or any ids, in the
    order given. The rows are cut into runs of consecutive entries whose
    stored edges number at most ``_FILL_EDGES`` in all (a row holding
    more is a run of its own); each run's edges are gathered segment by
    segment and its marginals written into one output array. A row's
    marginal is its own segment sum whatever run holds it, so any two
    calls agree bit for bit."""
    def gains_at(cn: np.ndarray, rows) -> np.ndarray:
        lo = G.indptr[:-1][rows]
        counts = G.indptr[1:][rows] - lo
        ends = np.cumsum(counts)
        starts = ends - counts  # of each row's edges, with the rows laid end to end
        c, out, a = conf[rows], np.empty(len(lo)), 0
        while a < len(lo):
            b = max(int(np.searchsorted(ends, starts[a] + _FILL_EDGES, side="right")), a + 1)
            n = counts[a:b]
            at = np.arange(starts[a], ends[b - 1]) + np.repeat(lo[a:b] - starts[a:b], n)
            inc = G.weights[at] * np.repeat(c[a:b], n)  # w(x, j) C[x] in float64
            out[a:b] = _marginals(cn, G.indices[at], inc, starts[a:b] - starts[a], u)
            a = b
        return out
    return gains_at


def _best_of(gains_at, gains: np.ndarray):
    """Pick policy over ``gains``, one array of the m rows kept across
    steps: ``gains_at`` fills it at the first step and refreshes it where
    the last update moved cn, -inf once taken (``taken`` marks the picks).
    It picks the candidate of highest gain among ``ids``, the rows of the
    group k whose turn it is; one array serves every group, so k goes
    unused. The caller owns ``gains`` and may read it between steps."""
    m, taken = gains.size, np.zeros(gains.size, dtype=bool)

    def pick(cn: np.ndarray, moved, k: int, ids: np.ndarray) -> tuple[int, float]:
        fresh = gains_at(cn, moved)
        fresh[taken[moved]] = -np.inf
        gains[moved] = fresh
        rows = _ALL if ids.size == m else ids  # a group of all rows reads gains whole
        x = int(ids[gains[rows].argmax()])  # first max: lowest index
        g, gains[x] = float(gains[x]), -np.inf  # also when the update does not reach x
        taken[x] = True
        return x, g
    return pick


def _celf(gains_at):
    """Lazy pick policy over exact marginals, one heap per group k.
    Stale gains are upper bounds by submodularity, so a heap top only
    needs refreshing until the freshest entry stays on top. The first
    pick computes one ``gains_at`` pass over all rows, and each group's
    heap is filled from that pass at the group's first turn; each refresh
    pops up to ``_CELF_BATCH`` consecutive stale tops and recomputes them
    in one ``gains_at`` call, so the rows the last update moved go
    unused. The (-gain, index) keys keep ties on the lowest index."""
    heaps, first, steps = {}, None, itertools.count()

    def pick(cn: np.ndarray, moved, k: int, ids: np.ndarray) -> tuple[int, float]:
        nonlocal first
        step = next(steps)  # picks made before this one
        if step == 0:
            first = gains_at(cn, _ALL)
        if k not in heaps:
            heaps[k] = [(-g, x, 0) for g, x in zip(first[ids].tolist(), ids.tolist())]
            heapq.heapify(heaps[k])
        heap = heaps[k]
        while heap[0][2] != step:
            stale = []
            while heap and heap[0][2] != step and len(stale) < _CELF_BATCH:
                stale.append(heapq.heappop(heap)[1])
            for x, g in zip(stale, gains_at(cn, np.array(stale)).tolist()):
                heapq.heappush(heap, (-g, x, step))
        neg_g, x, _ = heapq.heappop(heap)
        return x, -neg_g
    return pick


# Neighbor providers add pick x's weighted confidence w(., x) C[x] to the
# accumulator and return (rows, inc): they added inc to cn[rows].

def _graph_rows(neighbors, conf: np.ndarray):
    """The sparse update, over the row source ``neighbors(x) -> (ids,
    weights)``: a CSR graph's ``neighbors``, or ``_rows_on_demand``."""
    def update(cn: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
        js, ws = neighbors(x)
        inc = ws.astype(np.float64) * conf[x]
        cn[js] += inc
        return js, inc
    return update


def _rows_on_demand(stage: BallStage, gains: np.ndarray, budget: int):
    """A row source over ``stage``: when the pick x has no row yet, it is
    computed with the rows of highest gain in ``gains`` (``_best_of``'s)
    that are free, in one ``stage`` call of at most _PREFETCH_ROWS rows
    and at most the picks still to make of the budget (clamped to m).
    A row is held until it is picked; a picked row's gain is -inf, so a
    row is free unless it is held or picked, and none is computed
    twice."""
    held, left = {}, min(budget, stage.m)  # left: the picks still to make, x's included

    def neighbors(x: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal left
        if x not in held:
            free = gains.copy()  # a picked row's gain is -inf, x's included
            free[list(held)] = -np.inf
            k = min(_PREFETCH_ROWS, left) - 1
            top = np.argpartition(-free, k)[:k]  # the k highest
            ids = np.append(top[free[top] > -np.inf], x)
            held.update(zip(ids.tolist(), stage(ids)))
        left -= 1
        return held.pop(x)
    return neighbors


def _similarity_scan(U: np.ndarray, conf: np.ndarray, tau: float):
    rule, everyone = partial(edge_weights, U=U, floor=edge_floor(tau)), range(len(U))

    def update(cn: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
        js, w32 = rule((U @ U[x])[None], (x,), everyone)  # the graph's edge rule, on one row
        inc = np.zeros_like(cn)
        inc[js] = w32 * conf[x]
        cn += inc  # dense, like the scan: a sparse update skews per-step cost
        return _ALL, inc
    return update


def _greedy(m: int, cfg: SelectionConfig, u: Utility, labels: LabelVector | None, pick,
            update) -> SelectionResult:
    """The greedy loop, over a budget clamped to the population. The
    candidates form groups: one per present label class under
    ``cfg.balanced``, in id order, each its members in ascending index,
    else all rows (labels given then are ignored, with a warning). The
    groups take turns, and a group drops out once all its rows are
    picked. Each step asks the pick policy for a candidate of the group
    k whose turn it is, and its gain, passing the accumulator cn and the
    rows the last update moved (all rows at the first step), then adds
    the pick to cn.
    wall_times cover each step's pick and update. The objective trace,
    kept untimed, adds each pick's marginal u(cn) - u(cn - inc) over the
    rows it reached."""
    warnings, budget = [], min(cfg.budget, m)
    if cfg.budget > m:
        warnings.append(f"budget {cfg.budget} exceeds population {m}; clamped to {m}")
    if labels is not None and not cfg.balanced:
        warnings.append("labels are used only by balanced selection; ignored")
    cn, order = np.zeros(m), []
    classes = labels.values if cfg.balanced else np.zeros(m, np.int8)  # all rows: one class
    by_class = np.argsort(classes, kind="stable")  # each class's members in ascending index
    groups = np.split(by_class, np.flatnonzero(np.diff(classes[by_class])) + 1)
    turns = deque((k, ids.size) for k, ids in enumerate(groups))  # (group, rows left)
    picked, trace, wall_times = [], [], []
    total, moved = 0.0, _ALL
    while len(order) < budget:
        t0 = time.perf_counter()
        k, left = turns.popleft()
        x, g = pick(cn, moved, k, groups[k])
        if left > 1:
            turns.append((k, left - 1))
        moved, inc = update(cn, x)
        order.append(x)
        wall_times.append(time.perf_counter() - t0)
        hit = inc > 0.0  # the scan's inc is dense, zero off the pick's edges
        after, inc = cn[moved][hit], inc[hit]
        total += float((u(after) - u(after - inc)).sum())
        picked.append(g)
        trace.append(total)
    return SelectionResult(order=order, gains=picked, objective_trace=trace,
                           wall_times=wall_times, config=cfg, warnings=warnings)


def select(
    G: NeighborGraph | BallStage,
    C: ConfidenceVector,
    labels: LabelVector | None,
    cfg: SelectionConfig,
) -> SelectionResult:
    """Run the configured greedy selection and return the full trace. G
    is a graph, or a ``simgraph.BallStage`` whose rows are computed as
    the picks need them (``_rows_on_demand``), the surrogate rule alone:
    the same result as on ``G.graph()``, bit for bit, and the stage
    counts the rows, edges and pairs. A surrogate step reads the pick's
    row alone, and ``_best_of`` keeps every self gain exact, so no other
    row is needed. The inputs are checked first by ``check_inputs``."""
    check_inputs(G.m, C, labels, cfg)
    if cfg.rule != "surrogate" and isinstance(G, BallStage):
        raise ConfigError("rows on demand serve only the surrogate rule")
    if cfg.rule != "surrogate" and not np.diff(G.indptr).all():
        raise DataError("exact marginals need every graph row to hold its self-loop")
    cfg = replace(cfg, tau=G.tau)  # the graph decides the edges, so record its tau
    u, gains = utility_from_config(cfg), np.empty(G.m)
    if cfg.rule == "surrogate":  # a self gain moves only where cn moved
        pick = _best_of(_self_gains(C.values, u), gains)
    else:  # exact and lazy: one CELF computation
        pick = _celf(_exact_gains(G, C.values, u))
    rows = G.neighbors if isinstance(G, NeighborGraph) else _rows_on_demand(G, gains, cfg.budget)
    return _greedy(G.m, cfg, u, labels, pick, _graph_rows(rows, C.values))


def rows_pay(stage: BallStage, cfg: SelectionConfig) -> bool:
    """Whether ``select`` on ``stage`` is the cheaper way to run ``cfg``
    than on ``stage.graph()``: the surrogate rule, and the candidate
    pairs of as many rows as the budget below _ROWS_SHARE of the pairs
    that building the whole graph multiplies."""
    budget = min(cfg.budget, stage.m)
    return (cfg.rule == "surrogate"
            and budget * stage.row_pairs() < _ROWS_SHARE * stage.build_pairs())


def _scan(E, C: ConfidenceVector, labels: LabelVector | None,
          cfg: SelectionConfig) -> SelectionResult:
    """The scan path of ``select_embeddings``: the surrogate rule, plain or
    balanced, on one similarity scan per pick, and no graph."""
    cfg = replace(cfg, tau=float(cfg.tau))
    u = utility_from_config(cfg)
    pick = _best_of(_self_gains(C.values, u), np.empty(E.m))
    result = _greedy(E.m, cfg, u, labels, pick, _similarity_scan(unit_rows(E), C.values, cfg.tau))
    return replace(result, graph={"source": "scan", "tau": cfg.tau})


def select_embeddings(E, C: ConfidenceVector, labels: LabelVector | None,
                      cfg: SelectionConfig) -> SelectionResult:
    """Selection from embeddings with no graph at hand: ``select``'s result
    on ``build_graph(E, cfg.tau)``, bit for bit, by the scan, the rows on
    demand or the build, whichever the module docstring's rule chooses.
    The result's ``graph`` block names the path: ``{source: scan, tau}``;
    ``{source: rows, tau, rows, edges, pairs}``, the stage's counts; or
    ``{source: built, tau, edges, degree, pairs}``. The inputs are checked
    first by ``check_inputs``."""
    check_inputs(E.m, C, labels, cfg)
    if cfg.rule == "surrogate" and min(cfg.budget, E.m) < _PREFETCH_ROWS // 2:
        return _scan(E, C, labels, cfg)
    stage = ball_stage(E, cfg.tau)
    G = stage if rows_pay(stage, cfg) else stage.graph()
    result = select(G, C, labels, cfg)
    about = ({"source": "rows", "tau": stage.tau, "rows": stage.rows, "edges": stage.edges}
             if G is stage else {"source": "built", **graph_summary(G)})
    return replace(result, graph={**about, "pairs": stage.pairs})


def select_streaming(E, C: ConfidenceVector, cfg: SelectionConfig) -> SelectionResult:
    """``select_embeddings`` without labels: plain surrogate selection by
    default, and any rule ``cfg`` names. A confidence vector of another
    length than E's is a DataError."""
    return select_embeddings(E, C, None, cfg)


@dataclass(frozen=True)
class SubsetReport:
    size: int
    objective: float
    cn_min: float
    cn_mean: float
    cn_max: float
    coverage: float
    noise_ratio: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.noise_ratio is None:
            del d["noise_ratio"]
        return d


def evaluate_subset(
    G: NeighborGraph,
    C: ConfidenceVector,
    S,
    u: Utility,
    noise_flags: NoiseFlagVector | None = None,
) -> SubsetReport:
    """Objective, accumulator distribution, coverage, and (when flags
    are supplied) the fraction of selected examples that are noisy. A
    confidence or noise-flag vector of another length than the graph's
    is a DataError."""
    check_inputs(G.m, C, noise_flags=noise_flags)
    idx = check_subset(G.m, S)
    cn = _accumulate(G, C, idx)
    noise_ratio = None
    if noise_flags is not None:
        noise_ratio = (
            float(noise_flags.values[idx].sum()) / len(idx) if idx else 0.0
        )
    return SubsetReport(
        size=len(idx),
        objective=float(u(cn).sum()),
        cn_min=float(cn.min()),
        cn_mean=float(cn.mean()),
        cn_max=float(cn.max()),
        coverage=float((cn > 0.0).mean()),
        noise_ratio=noise_ratio,
    )
