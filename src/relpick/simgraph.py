"""Thresholded cosine-similarity neighborhood graph.

The graph is exact, and an edge and its weight depend on the pair alone.
The weight of (i, j) is the exact dot product of the unit rows U[i] and
U[j], rounded once to float32 (a self-loop's rounds to 1), and (i, j) is
an edge when that weight reaches ``edge_threshold(tau)``. ``edge_weights``
holds this rule for the build and for the streaming scan alike. A float64
cosine summed in any order lies within gamma_d = d*u / (1 - d*u) of the
exact value (u = 2^-53), so the rule screens float64 cosines at
``edge_floor(tau)`` less a band of twice that, casts the survivors to
float32, and recomputes exactly, with a ``Fraction`` sum, only those
within the band of a float32 rounding midpoint, about one pair in two
million edges. No edge or weight depends on the BLAS kernel or on the
block layout. (``unit_rows`` uses numpy's norm, so the rule is pure on
one machine, not across CPUs.)

Construction skips the pairs that the triangle inequality on the sphere
proves cannot be edges (threshold pruning after Bayardo et al., WWW
2007, and Elkan, ICML 2003). One ball stage, ``_balls``, leader-clusters
the rows in index order: a row with no leader within ``_BALL_ANGLE`` (45
degrees) becomes one, up to ``_MAX_LEADERS``, and each row joins its
nearest leader within that angle. A leader with two or more members
makes a ball: centre the normalized centroid, radius the widest member
angle. The rows are permuted ball by ball, then the loose rows, each in
index order, and each group is handed the columns it is multiplied
against, in float64 over the upper triangle of that order: a ball its
own rows and the later rows whose angle to its centre is at most its
radius plus the widest edge angle plus a slack, the loose rows their
own rows. Each edge is mirrored.
With no balls this is the full O(m^2 d) upper-triangle build. A block
holds at most 8 MiB of cosines, or one row when a row is larger,
whatever m is. Each block's edges (i, j), i <= j, go as 12-byte records
to the band of ``_BAND_ROWS`` (512) rows that holds row i, and the loop
counts each row's degree, so the CSR is allocated once. The CSR is then
assembled band by band, in ascending order, in O(nnz): LSD radix sorts
over 16-bit digits put the band's records in column-major order, to
write each mirror (j, i) at the front of row j, and in row-major order,
to write each edge at the back of row i. Row i holds its mirrored edges
(columns < i), then its self-loop and the edges it found (columns > i),
so columns are sorted per row. After the products the build holds the
records (6 bytes per edge), the CSR (8 bytes per edge) and one band's
temporaries; ``NeighborGraph.validate`` holds O(m) arrays and one band's
temporaries beside the graph. Stored weights always lie in [tau, 1].

``ball_stage`` runs the ball stage once, and the ``BallStage`` it returns
keeps the balls' reach test. ``BallStage.graph`` builds the graph from
it, and a call of the stage computes any rows of that graph without the
others. The build scores a pair from one side, the group of its earlier
row in the ball order, and mirrors it. A call multiplies the rows it is
asked for in one group against both sides: the group's columns, and the
rows of every earlier ball that reaches one of them. A ball that does
not reach a row holds no edge of it, by the proof the build skips pairs
on, and ``edge_weights`` gives a pair the same edge and weight in any
block layout, so the rows hold every edge the rule keeps and equal the
graph's, byte for byte. Before any product, ``BallStage.build_pairs``
counts the dot products of the build and ``BallStage.row_pairs`` those
of a row on demand, on the mean; ``pruner.rows_pay`` compares the two,
and ``pruner.select_embeddings`` takes the rows or builds by that count.
The build and the rows on demand take their rows per block of cosines
from one rule, ``_rows_per_block``.

Column ids are int32 everywhere: in the build, in ``NeighborGraph`` and
in the cache, so m must stay below 2^31. Row offsets are int64.

Cache file format: 8-byte magic ``RELGRPH2``, u64 m, f64 tau, u64 nnz,
then (m+1) i64 row offsets, nnz i32 column ids, nnz f32 weights, all
little-endian. Any other header, a ``RELGRPH1`` cache's (u64 column
ids) included, is refused with a request to rebuild the cache.
``graph_header`` reads the header alone, and ``load_graph`` reads it
through ``graph_header``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from operator import mul
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .dataspec import EmbeddingMatrix, check_tau

GRAPH_MAGIC = b"RELGRPH2"

_BLOCK_BYTES = 8 << 20  # float64 cosines per build block, unless one row is larger
_BAND_ROWS = 1 << 9  # rows per band of the CSR assembly and of the symmetry check
# Bytes per segment of build records: above the 32 MiB up to which glibc's
# malloc may serve a request from its heap, so that a segment is mapped on
# its own and only the pages written to are resident.
_SEGMENT_BYTES = 64 << 20
_BALL_ANGLE = math.radians(45.0)  # R0: a row joins its nearest leader within this angle
_MAX_LEADERS = 256  # after that many leaders, a row with none within R0 stays loose
_ANGLE_SLACK = 1e-6  # radians added to every pruning bound
_SCAN_ROWS = 1024  # rows per block of the leader scan and the ball tests


@dataclass(frozen=True)
class NeighborGraph:
    """Symmetric CSR adjacency with weights in [tau, 1] and self-loops."""

    m: int
    tau: float
    indptr: np.ndarray   # int64, shape (m+1,)
    indices: np.ndarray  # int32, neighbor ids, sorted per row
    weights: np.ndarray  # float32, cosine similarities

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i's neighbor ids and weights. The ids are cast to intp, which
        numpy indexes with about three times faster than int32 ids."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi].astype(np.intp), self.weights[lo:hi]

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def dense_weights(self) -> np.ndarray:
        """Materialize the m x m weight matrix (small instances only)."""
        W = np.zeros((self.m, self.m), dtype=np.float64)
        W[np.repeat(np.arange(self.m), np.diff(self.indptr)), self.indices] = self.weights
        return W

    def validate(self) -> None:
        """Accept exactly what ``build_graph`` writes, in O(nnz), in one walk
        over bands of _BAND_ROWS rows: beside the graph it holds O(m)
        arrays and one band's temporaries.

        Each band is checked for self-loops and for columns increasing
        within each row, and its upper edges (column > row), in row-major
        order, are handed to the rows of their columns, each row filled
        from its start as ``build_graph`` fills it; an edge's slot must lie
        before the end of its column's row and hold the lower edge (column
        < row) with row, column and weight swapped. Once every row's fill
        stops at its self-loop, every lower edge was matched, so the
        adjacency is symmetric with equal weights. A missing self-loop is
        reported first, then columns that do not strictly increase, then
        asymmetry."""
        if self.indptr.shape != (self.m + 1,) or self.indptr[0] != 0:
            raise DataError("graph: malformed row offsets")
        if np.any(np.diff(self.indptr) < 0):
            raise DataError("graph: row offsets decrease")
        if self.indices.size != self.weights.size or self.indices.size != self.indptr[-1]:
            raise DataError("graph: index/weight arrays inconsistent with offsets")
        if not (0.0 < self.tau <= 1.0):
            raise DataError(f"graph: tau {self.tau} outside (0, 1]")
        cols, w = self.indices, self.weights
        if self.nnz and (cols.min() < 0 or cols.max() >= self.m):
            raise DataError(f"graph: column id outside [0, {self.m})")
        w_lo, w_hi = (w.min(), w.max()) if w.size else (1.0, 1.0)
        if w_lo < edge_threshold(self.tau) or w_hi > 1.0:
            raise DataError("graph: edge weight outside [tau, 1]")
        loop = np.empty(self.m, dtype=np.int64)  # each row's self-loop position
        fill = self.indptr[:-1].copy()  # each row's next lower edge to match
        # A NaN weight passes the range check but equals nothing.
        rising, symmetric = True, not np.isnan(w_lo)
        for lo, hi, rows in _row_bands(self.indptr):
            s = self.indptr[lo]
            c = cols[s:s + rows.size]
            hits = np.flatnonzero(c == rows)
            looped = np.zeros(hi - lo, dtype=bool)
            looped[rows[hits] - lo] = True
            if not looped.all():
                raise DataError(f"graph: missing self-loop at row {lo + int(np.argmin(looped))}")
            up = c[1:] > c[:-1]
            up[self.indptr[lo + 1:hi] - s - 1] = True  # every row holds its self-loop, so none is empty
            rising &= bool(up.all())  # raised once every row's self-loop is checked
            loop[lo:hi] = s + hits[:hi - lo]  # one self-loop per row when rising
            if symmetric:  # else only the structure is left to check
                upper = np.flatnonzero(c > rows)
                by_col = upper[_stable_order(c[upper], self.m)]  # each column's upper edges in ascending row
                j = c[by_col]
                at = _slots(fill, j)
                symmetric = (not np.any(at >= self.indptr[j + 1])  # more upper edges than the row holds
                             and np.array_equal(cols[at], rows[by_col])
                             and np.array_equal(w[at], w[s + by_col]))
        if not rising:
            raise DataError("graph: column ids not strictly increasing within a row")
        if not (symmetric and np.array_equal(fill, loop)):
            raise DataError("graph: adjacency is not symmetric")


def unit_rows(E: EmbeddingMatrix) -> np.ndarray:
    """Rows scaled to unit L2 norm, in float64. Zero rows are data errors."""
    data = E.data.astype(np.float64)
    norms = np.linalg.norm(data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"row {zero[0]} has zero norm; cosine similarity undefined")
    return data / norms[:, None]


def edge_threshold(tau: float) -> np.float32:
    """The smallest float32 whose float64 value is >= tau: a float32 weight
    w is an edge when w >= it. Comparing w >= tau directly would round tau
    to float32 (NumPy 2, NEP 50) and admit weights below tau."""
    t32 = np.float32(tau)
    return t32 if float(t32) >= tau else np.nextafter(t32, np.float32(np.inf))


def edge_floor(tau: float) -> float:
    """The smallest float64 x with float32(x) >= edge_threshold(tau), so a
    float64 cosine is an edge exactly when it is >= this floor: the
    midpoint between t32 and the float32 below it, or the next float64
    above when that midpoint rounds down (round half to even)."""
    t32 = edge_threshold(tau)
    mid = (float(np.nextafter(t32, np.float32(-np.inf))) + float(t32)) / 2  # exact in float64
    return mid if np.float32(mid) >= t32 else float(np.nextafter(mid, np.inf))


def rounding_band(d: int) -> float:
    """Twice gamma_d = d*u / (1 - d*u), u = 2^-53. A float64 dot product of
    two unit rows of length d, summed in any order, with or without FMA,
    lies within gamma_d of the exact value; the factor two also covers the
    rows' norms, a few ulp from 1, and the rounding of cos +- band."""
    du = d * 2.0 ** -53
    return 2 * du / (1 - du)


def exact_weight(u: np.ndarray, v: np.ndarray) -> np.float32:
    """The float32 nearest the exact dot product of two float64 vectors,
    ties to even: a Fraction sum of the products, rounded once (rounding
    through float64 could round twice)."""
    x = sum(map(mul, map(Fraction, u.tolist()), map(Fraction, v.tolist())), Fraction(0))
    w = np.float32(float(x))  # the nearest float32 is w or one of its neighbors
    steps = (np.nextafter(w, np.float32(-np.inf)), w, np.nextafter(w, np.float32(np.inf)))
    return min(steps, key=lambda f: (abs(Fraction(float(f)) - x), int(f.view(np.uint32)) & 1))


def edge_weights(sims: np.ndarray, rows, cols, U: np.ndarray,
                 floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The edge rule on a C-contiguous float64 block of cosines summed in
    any order, sims[k, l] ~ U[rows[k]] . U[cols[l]]: returns the edges'
    positions in the raveled block and their float32 weights.

    A pair's weight is its exact cosine rounded once to float32, so a
    self-loop weighs 1 and no weight depends on the BLAS kernel. The
    block is screened at floor - rounding_band(d). A survivor whose
    cos - band and cos + band round to one float32 takes that weight; the
    others lie within the band of a float32 rounding midpoint and are
    recomputed by ``exact_weight``. rows and cols map block positions to
    rows of U (ranges will do); only the recomputed pairs read them."""
    band = rounding_band(U.shape[1])
    flat = (sims >= floor - band).ravel().nonzero()[0]
    cos = sims.take(flat)
    w32 = (cos + band).astype(np.float32)
    for k in ((cos - band).astype(np.float32) != w32).nonzero()[0].tolist():
        r, c = divmod(int(flat[k]), sims.shape[1])
        w32[k] = exact_weight(U[rows[r]], U[cols[c]])
    keep = w32 >= floor  # w32 >= edge_threshold(tau): the floor lies above the float32 below it
    return flat[keep], w32[keep]


def build_graph(E: EmbeddingMatrix, tau: float) -> NeighborGraph:
    return ball_stage(E, tau).graph()


@dataclass
class BallStage:
    """The ball stage of one (E, tau), from ``_balls``: the order that lists
    the rows ball by ball, the rows P = U[order], each group's (lo, hi, at)
    and the balls' reach ``near``. ``graph`` builds every row from it,
    once, and a call with ids computes any rows without the others.

    A call returns, per id, what the graph's ``neighbors`` gives, the
    columns ascending (intp) and the float32 weights, self-loop included.
    The requested rows of one group g are one block, multiplied in
    sub-blocks of ``_rows_per_block`` rows against g's columns ``at`` (the
    build's own side) and the rows of every earlier ball whose ``at``
    holds one of them (the side the build mirrors, ``_reach``), and a row
    keeps every pair that ``edge_weights`` keeps. A ball that does not
    reach a row lies beyond the widest edge angle from it, so the pairs
    it adds to that row fail the rule, and a row holds the same edges and
    weights as the graph's. ``rows``, ``edges`` and ``pairs`` count the
    rows computed, their stored entries and the dot products multiplied;
    ``graph`` adds the build's products to ``pairs``."""

    tau: float
    floor: float
    order: np.ndarray
    P: np.ndarray | None
    groups: list | None
    near: np.ndarray | None  # near[b, p]: ball b reaches position p; read only past ball b
    rows: int = 0
    edges: int = 0
    pairs: int = 0

    def __post_init__(self):
        self.rank = np.empty(self.m, dtype=np.intp)  # each row's position in P
        self.rank[self.order] = np.arange(self.m)
        sizes = [hi - lo for lo, hi, _ in self.groups]
        self.group_of = np.repeat(np.arange(len(sizes)), sizes)  # each position's group

    @property
    def m(self) -> int:
        return len(self.order)

    def _parts(self) -> tuple[np.ndarray, list]:
        """P and the groups, or a RuntimeError once ``graph`` has let them go."""
        if self.groups is None:
            raise RuntimeError("this BallStage was used up by graph(); run ball_stage again")
        return self.P, self.groups

    def _reach(self, g: int, rows) -> list[int]:
        """The earlier balls whose ``at`` holds one of the positions ``rows``
        of group g."""
        return np.flatnonzero(self.near[:g, rows].any(axis=1)).tolist()

    def build_pairs(self) -> int:
        """The dot products ``graph`` multiplies: a block of rows start..
        of a group takes the group's columns from row start on."""
        total = 0
        for lo, hi, at in self._parts()[1]:
            step = _rows_per_block(at.size)
            starts = np.arange(0, hi - lo, step)
            total += int((np.minimum(step, hi - lo - starts) * (at.size - starts)).sum())
        return total

    def row_pairs(self) -> float:
        """The mean, over the rows, of the columns of the row's group: its
        ``at``, and the rows of every earlier ball whose ``at`` holds one
        of the group's rows. A call multiplies a block of the group's rows
        against them, or against fewer."""
        groups = self._parts()[1]
        total = 0
        for g, (lo, hi, at) in enumerate(groups):
            reach = sum(groups[b][1] - groups[b][0] for b in self._reach(g, slice(lo, hi)))
            total += (hi - lo) * (at.size + reach)
        return total / self.m

    def __call__(self, ids) -> list[tuple[np.ndarray, np.ndarray]]:
        """The graph's rows ``ids``, computed on demand (see above)."""
        P, groups = self._parts()
        ids = np.asarray(ids, dtype=np.intp)
        pos = self.rank[ids]
        group = self.group_of[pos]
        out = [None] * ids.size
        for g in np.unique(group).tolist():
            block = np.flatnonzero(group == g)
            rows = pos[block]
            lo, hi, at = groups[g]
            cols = np.concatenate([at] + [np.arange(*groups[b][:2]) for b in self._reach(g, rows)])
            X = P[lo:hi] if cols.size == hi - lo else P[cols]  # own rows alone: a view
            step = _rows_per_block(cols.size)
            buf = np.empty(min(step, rows.size) * cols.size)
            for start in range(0, rows.size, step):
                part = rows[start:start + step]
                flat, w32 = edge_weights(_cosines(P[part], X, buf), part, cols, P, self.floor)
                r, c = divmod(flat, cols.size)
                j = self.order[cols[c]].astype(np.intp)
                by_row = np.argsort(r * self.m + j)
                r, j, w32 = r[by_row], j[by_row], w32[by_row]
                cuts = np.cumsum(np.bincount(r, minlength=part.size))[:-1]
                for k, js, ws in zip(block[start:start + step].tolist(), np.split(j, cuts),
                                     np.split(w32, cuts)):
                    out[k] = (js, ws)
                self.pairs += part.size * cols.size
                self.edges += j.size
        self.rows += ids.size
        return out

    def graph(self) -> NeighborGraph:
        """The graph ``build_graph`` returns: every row, in one walk over
        the groups, then the CSR assembled band by band. It uses the stage
        up: the reach is let go before the products, P and the groups
        before the assembly, which holds the records and the CSR."""
        (P, groups), m, pairs = self._parts(), self.m, self.build_pairs()
        self.P = self.groups = self.near = None
        self.pairs += pairs
        segments, bands, degree = _upper_edges(self.order, P, groups, self.floor, pairs)
        del P, groups
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        del degree
        indices = np.empty(indptr[-1], dtype=np.int32)
        weights = np.empty(indptr[-1], dtype=np.float32)
        # Row i is [mirrored edges, columns < i][self-loop][own edges, columns > i].
        # Every mirror in row j comes from a band at or before j's, so filling the
        # bands in ascending order, each band's mirrors before its own edges,
        # writes every row front to back.
        fill = indptr[:-1].copy()  # each row's next free slot
        for b, runs in enumerate(bands):
            found = np.concatenate([segments[k][start:stop] for k, start, stop in runs])
            by_row = _stable_order(found[:, 0] - b * _BAND_ROWS, _BAND_ROWS,
                                   _stable_order(found[:, 1], m))
            found = found[by_row]  # row-major
            del by_row
            i, j, w = found[:, 0], found[:, 1], found[:, 2].view(np.float32)
            # each column's edges in ascending row, ending with the self-loop
            by_col = _stable_order(j, m)
            at = _slots(fill, j[by_col])
            indices[at], weights[at] = i[by_col], w[by_col]
            del by_col
            own = j > i
            at = _slots(fill, i[own])
            indices[at], weights[at] = j[own], w[own]
        return NeighborGraph(m=m, tau=self.tau, indptr=indptr, indices=indices, weights=weights)


def ball_stage(E: EmbeddingMatrix, tau: float) -> BallStage:
    """The ball stage that ``build_graph`` and the rows on demand start from."""
    check_tau(tau)
    floor = edge_floor(tau)
    return BallStage(float(tau), floor, *_balls(unit_rows(E), floor))


def _upper_edges(perm: np.ndarray, P: np.ndarray, groups: list, floor: float,
                 pairs: int) -> tuple[list, list, np.ndarray]:
    """The edges (i, j) with i <= j, the self-loops included, and each row's
    degree. The edges are (i, j, float32 weight bits) int32 records in
    segments, in no set order; bands[b] lists the (segment, start, stop)
    runs that hold the records with i in band b (rows b * _BAND_ROWS on).
    Each group's rows, in the ball-ordered rows P, are multiplied in blocks
    against the group's columns; each block keeps its upper triangle, at
    most the pairs it multiplies, so the build's ``pairs`` bound the
    records."""
    m, steps = len(P), [_rows_per_block(at.size) for _, _, at in groups]
    buf = np.empty(max(min(step, hi - lo) * at.size for (lo, hi, at), step in zip(groups, steps)))
    rule = partial(edge_weights, U=P, floor=floor)
    bands = [[] for _ in range(0, m, _BAND_ROWS)]
    degree = np.full(m, -1, dtype=np.int64)  # a self-loop is counted at both ends
    # Each block's records go, sorted by band, into the free front of a
    # segment, and the bands note their runs as plain ints: arrays or views
    # kept per block would be allocated among the blocks' freed temporaries
    # and keep that memory from the system until the build ends.
    seg = max(1, min(m * (m + 1) // 2, pairs, _SEGMENT_BYTES // 12))
    segments, n = [np.empty((seg, 3), np.int32)], 0
    for (lo, hi, at), step in zip(groups, steps):
        X = P[at]
        for start in range(lo, hi, step):
            block = range(start, min(start + step, hi))
            cols = at[start - lo:]  # column positions in P, the block's own rows first
            flat, w32 = rule(_cosines(P[block.start:block.stop], X[start - lo:], buf), block, cols)
            r, c = divmod(flat, len(cols))
            upper = c >= r  # a block's first columns are its own rows
            i, j = perm[start + r[upper]], perm[cols[c[upper]]]
            degree += np.bincount(np.concatenate((i, j)), minlength=m)
            row = np.minimum(i, j)
            band = row // _BAND_ROWS
            by_band = _stable_order(band, len(bands))
            if n + i.size > len(segments[-1]):
                segments.append(np.empty((max(seg, i.size), 3), np.int32))
                n = 0
            out = segments[-1][n:n + i.size]
            out[:, 0] = row[by_band]
            out[:, 1] = np.maximum(i, j)[by_band]
            out[:, 2] = w32[upper].view(np.int32)[by_band]
            sizes = np.bincount(band, minlength=len(bands))
            for b in np.flatnonzero(sizes).tolist():
                bands[b].append((len(segments) - 1, n, n + int(sizes[b])))
                n += int(sizes[b])
    return segments, bands, degree


def _rows_per_block(columns: int) -> int:
    """Rows per block of cosines against ``columns`` columns, in the build
    and in the rows on demand: at most _BLOCK_BYTES of cosines, or one
    row."""
    return max(1, _BLOCK_BYTES // (8 * columns))


def _cosines(A: np.ndarray, B: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """A @ B.T in float64 into the front of buf: the build's one GEMM."""
    return np.matmul(A, B.T, out=buf[:len(A) * len(B)].reshape(len(A), len(B)))


def _balls(U: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """Leader clustering in index order, in blocks of _SCAN_ROWS rows: a row
    with no leader within _BALL_ANGLE becomes one, until there are
    _MAX_LEADERS, and every row joins its nearest leader within that angle.
    Returns the order that lists each ball (a leader with two or more
    members, in leader order) and then the loose rows, each in index
    order; the rows P = U[order]; and (lo, hi, at) per group, rows
    lo..hi-1 of P, where ``at`` holds the positions in P that the group is
    multiplied against, its own rows first. The loose rows, the last
    group, take only their own rows. A ball also takes the later rows
    whose angle to its centre (the normalized centroid) is within its
    radius (the widest member angle) plus arccos(floor - band), the widest
    angle of an edge, plus a slack of _ANGLE_SLACK + 4 sqrt(band): arccos
    turns a cosine error e into an angle error of at most sqrt(2e). The
    triangle inequality on the sphere rules out every other pair. The
    fourth value is that reach test, near[b, p] for ball b and position p:
    past ball b (p >= hi) it holds exactly when ``at`` holds p."""
    m, d = U.shape
    cos_r0 = math.cos(_BALL_ANGLE)
    leaders = []
    for s in range(0, m, _SCAN_ROWS):
        if len(leaders) == _MAX_LEADERS:
            break
        block = U[s:s + _SCAN_ROWS]
        free = np.flatnonzero((block @ U[leaders].T).max(axis=1, initial=-np.inf) < cos_r0)
        while free.size and len(leaders) < _MAX_LEADERS:
            leaders.append(s + int(free[0]))
            free = free[(block @ block[free[0]])[free] < cos_r0]  # the leader itself goes too
    L = U[leaders]
    owner = np.empty(m, dtype=np.intp)
    for s in range(0, m, _SCAN_ROWS):
        cos = U[s:s + _SCAN_ROWS] @ L.T
        best = cos.argmax(axis=1)
        owner[s:s + _SCAN_ROWS] = np.where(cos.max(axis=1) >= cos_r0, best, len(leaders))
    size = np.bincount(owner, minlength=len(leaders) + 1)[:-1]
    ball = size >= 2
    n = int(ball.sum())  # the loose rows' group: singletons and rows with no leader
    group = np.append(np.where(ball, np.cumsum(ball) - 1, n), n)
    order = _stable_order(group[owner], n + 1)
    P = U[order]
    bounds = np.concatenate([[0], np.cumsum(size[ball])]).tolist()
    balls = list(zip(bounds[:-1], bounds[1:]))
    band = rounding_band(d)
    centres = np.array([P[lo:hi].sum(axis=0) for lo, hi in balls]).reshape(-1, d)
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    radii = np.array([math.acos(min(1.0, float((P[lo:hi] @ centre).min())))
                      for (lo, hi), centre in zip(balls, centres)])
    reach = radii + math.acos(floor - band) + _ANGLE_SLACK + 4 * math.sqrt(band)
    cos_reach = np.where(reach < math.pi, np.cos(np.minimum(reach, math.pi)), -np.inf)[:, None]
    near = np.empty((n, m), dtype=bool)  # near[b, p]: position p may reach ball b
    for s in range(0, m, _SCAN_ROWS):
        np.greater_equal(centres @ P[s:s + _SCAN_ROWS].T, cos_reach, out=near[:, s:s + _SCAN_ROWS])
    groups = [(lo, hi, np.concatenate([np.arange(lo, hi), hi + np.flatnonzero(near[b, hi:])]))
              for b, (lo, hi) in enumerate(balls)]
    if bounds[-1] < m:
        groups.append((bounds[-1], m, np.arange(bounds[-1], m)))
    return order, P, groups, near


def _stable_order(keys: np.ndarray, m: int, order: np.ndarray | None = None) -> np.ndarray:
    """``order`` (the identity by default) sorted stably by keys[order], for
    integer keys in [0, m): an LSD radix over 16-bit digits, because numpy
    sorts types of 16 bits or fewer stably by radix and wider ones by
    timsort. One pass while m <= 2^16, two below 2^32."""
    idx = np.int32 if keys.size < 1 << 31 else np.intp  # half the bytes of numpy's intp
    for shift in range(0, max(m - 1, 1).bit_length(), 16):
        digits = keys if order is None else keys[order]
        step = np.argsort((digits >> shift if shift else digits).astype(np.uint16), kind="stable")
        del digits
        order = step.astype(idx) if order is None else order[step]
    return order


def _slots(fill: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The CSR positions of entries sorted by row: each row's run takes the
    slots from fill[row] on, and fill moves past them."""
    start = np.flatnonzero(np.diff(rows, prepend=-1))  # the first entry of each row's run
    run = np.diff(start, append=rows.size)
    first = rows[start]
    at = np.repeat(fill[first] - start, run)
    at += np.arange(rows.size)
    fill[first] += run
    return at


def _row_bands(indptr: np.ndarray):
    """(lo, hi, rows) per band of _BAND_ROWS rows: rows lo..hi-1 and the row
    of each of their entries, indptr[lo]..indptr[hi]-1 (int32)."""
    m = len(indptr) - 1
    for lo in range(0, m, _BAND_ROWS):
        hi = min(lo + _BAND_ROWS, m)
        yield lo, hi, np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(indptr[lo:hi + 1]))


@dataclass(frozen=True)
class DegreeStats:
    min: int
    mean: float
    max: int


def degree_stats(G: NeighborGraph) -> DegreeStats:
    """Neighbor-count summary, self-loops excluded."""
    degrees = np.diff(G.indptr) - 1
    return DegreeStats(
        min=int(degrees.min()),
        mean=float(degrees.mean()),
        max=int(degrees.max()),
    )


def graph_summary(G: NeighborGraph) -> dict:
    """The graph's tau, stored entries (self-loops included) and degree
    stats: what ``relpick graph`` prints and a built or cached graph's
    ``graph`` block in a selection result holds."""
    return {"tau": G.tau, "edges": G.nnz, "degree": asdict(degree_stats(G))}


def save_graph(path: str | Path, G: NeighborGraph) -> None:
    with open(path, "wb") as f:
        f.write(GRAPH_MAGIC)
        f.write(struct.pack("<QdQ", G.m, G.tau, G.nnz))
        for a, dtype in ((G.indptr, "<i8"), (G.indices, "<i4"), (G.weights, "<f4")):
            np.ascontiguousarray(a, dtype=dtype).tofile(f)  # no copy when a has the dtype


def graph_header(path: str | Path) -> tuple[int, float, int]:
    """A cache's (m, tau, nnz), read from its 32-byte header alone."""
    with open(path, "rb") as f:
        head = f.read(32)
    if len(head) < 32 or head[:8] != GRAPH_MAGIC:  # a RELGRPH1 cache included
        raise FormatError(f"{path}: no RELGRPH2 graph header; rebuild it with `relpick graph`")
    return struct.unpack("<QdQ", head[8:32])


def load_graph(path: str | Path) -> NeighborGraph:
    m, tau, nnz = graph_header(path)
    with open(path, "rb") as f:
        f.seek(32)
        need = (m + 1) * 8 + nnz * 4 + nnz * 4
        if os.fstat(f.fileno()).st_size - 32 != need:
            raise FormatError(f"{path}: payload size mismatch (expected {need} bytes)")
        indptr = np.fromfile(f, dtype="<i8", count=m + 1)
        indices = np.fromfile(f, dtype="<i4", count=nnz)
        weights = np.fromfile(f, dtype="<f4", count=nnz)
    G = NeighborGraph(m=m, tau=tau, indptr=indptr, indices=indices, weights=weights)
    G.validate()
    return G
