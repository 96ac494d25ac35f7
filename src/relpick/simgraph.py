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
holds at most 32 MiB of cosines, or one row when a row is larger,
whatever m is. The edges are put in row-major order by LSD radix sorts
over 16-bit digits, and the CSR is assembled in O(nnz): row i holds its
mirrored edges (columns < i), then its self-loop and the edges it found
(columns >= i), so columns are sorted per row. Stored weights always lie
in [tau, 1].

Column ids are int32 everywhere: in the build, in ``NeighborGraph`` and
in the cache, so m must stay below 2^31. Row offsets are int64.

Cache file format: 8-byte magic ``RELGRPH2``, u64 m, f64 tau, u64 nnz,
then (m+1) i64 row offsets, nnz i32 column ids, nnz f32 weights, all
little-endian. Any other header, a ``RELGRPH1`` cache's (u64 column
ids) included, is refused with a request to rebuild the cache.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .dataspec import EmbeddingMatrix

GRAPH_MAGIC = b"RELGRPH2"

_BLOCK_BYTES = 32 << 20  # float64 cosines per build block, unless one row is larger
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

    def row_ids(self) -> np.ndarray:
        """The row of each stored edge, aligned with ``indices`` (int32)."""
        return np.repeat(np.arange(self.m, dtype=np.int32), np.diff(self.indptr))

    def dense_weights(self) -> np.ndarray:
        """Materialize the m x m weight matrix (small instances only)."""
        W = np.zeros((self.m, self.m), dtype=np.float64)
        W[self.row_ids(), self.indices] = self.weights
        return W

    def validate(self) -> None:
        """Accept exactly what ``build_graph`` writes, in O(nnz).

        Symmetry with equal weights holds when the upper edges (column >
        row), in row-major order and sorted stably by column, are the lower
        edges (column < row) in row-major order with row and column
        swapped. The stable sort is an LSD radix sort over 16-bit digits
        (numpy sorts types of 16 bits or fewer stably by radix): one pass
        while m <= 2^16, two below 2^31."""
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
        rows = self.row_ids()
        loops = np.flatnonzero(cols == rows)
        looped = np.zeros(self.m, dtype=bool)
        looped[rows[loops]] = True
        if not looped.all():
            raise DataError(f"graph: missing self-loop at row {int(np.argmin(looped))}")
        rising = cols[1:] > cols[:-1]
        rising[self.indptr[1:-1] - 1] = True  # every row holds its self-loop, so none is empty
        if not rising.all():
            raise DataError("graph: column ids not strictly increasing within a row")
        del rising
        # one self-loop per row now, after the row's lower edges
        lower_per_row = loops - self.indptr[:-1]
        up = cols > rows
        up_rows, up_cols, up_w = rows[up], cols[up], w[up]
        del up
        lower = cols < rows
        del rows
        by_col = _stable_order(up_cols, self.m)
        # The sorted upper columns are the lower edges' rows when the counts
        # per row agree. A NaN weight passes the range check but equals nothing.
        if (np.isnan(w_lo)
                or not np.array_equal(np.bincount(up_cols, minlength=self.m), lower_per_row)
                or not np.array_equal(up_rows[by_col], cols[lower])
                or not np.array_equal(up_w[by_col], w[lower])):
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


def edge_rule(U: np.ndarray, tau: float):  # edge_weights on the rows U, floor computed once
    return partial(edge_weights, U=U, floor=edge_floor(tau))


def build_graph(E: EmbeddingMatrix, tau: float) -> NeighborGraph:
    if not (0.0 < tau <= 1.0):
        raise ConfigError(f"tau must lie in (0, 1], got {tau}")
    rows, col, w = _upper_edges(E, edge_floor(tau))
    m = E.m
    by_row = _stable_order(rows, m, _stable_order(col, m))
    own = np.bincount(rows, minlength=m)
    del rows
    col = col[by_row]  # row-major from here on
    w = w[by_row]
    del by_row
    # A stable sort by column lists each column j's edges in ascending row i,
    # ending with the self-loop (j, j): row j's head, the self-loop included.
    # Sorted before the CSR is allocated, its temporaries stay off the peak.
    by_col = _stable_order(col, m)
    mirrored = np.bincount(col, minlength=m) - 1  # less the self-loop
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(own + mirrored, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    weights = np.empty(indptr[-1], dtype=np.float32)
    # Row i is [mirrored edges, columns < i][self-loop][own edges, columns > i].
    # The own edges and the self-loop fill the row's tail in row-major order.
    tail = _in_ranges(indptr[:-1] + mirrored, indptr[1:], indptr[-1])
    indices[tail], weights[tail] = col, w
    del tail, col
    head = _in_ranges(indptr[:-1], indptr[:-1] + mirrored + 1, indptr[-1])
    indices[head] = np.repeat(np.arange(m, dtype=np.int32), own)[by_col]
    weights[head] = w[by_col]
    return NeighborGraph(m=m, tau=float(tau), indptr=indptr, indices=indices, weights=weights)


def _upper_edges(E: EmbeddingMatrix, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (i, j) with i <= j, the self-loops included, in no set
    order: row ids, column ids (int32) and float32 weights. Each group's
    rows, in the ball-ordered rows P, are multiplied in blocks against the
    group's columns; each block keeps its upper triangle."""
    perm, P, groups = _balls(unit_rows(E), floor)
    steps = [max(1, _BLOCK_BYTES // (8 * at.size)) for _, _, at in groups]
    buf = np.empty(max(min(step, hi - lo) * at.size for (lo, hi, at), step in zip(groups, steps)))
    rule = partial(edge_weights, U=P, floor=floor)
    # (row, column, weight bits) records, written in place into segments of
    # twice a block's bytes: blocks' edge lists kept for one concatenation
    # would leave their memory scattered in the heap, and growing one array
    # would copy it
    seg = max(1, min(E.m * (E.m + 1) // 2, 2 * _BLOCK_BYTES // 12))
    parts, found, n = [], np.empty((seg, 3), np.int32), 0
    for (lo, hi, at), step in zip(groups, steps):
        X = P[at]
        for start in range(lo, hi, step):
            block = range(start, min(start + step, hi))
            cols = at[start - lo:]  # column positions in P, the block's own rows first
            flat, w32 = rule(_cosines(P[block.start:block.stop], X[start - lo:], buf), block, cols)
            r, c = divmod(flat, len(cols))
            upper = c >= r  # a block's first columns are its own rows
            i, j = perm[start + r[upper]], perm[cols[c[upper]]]
            if n + i.size > len(found):
                parts.append(found[:n])
                found, n = np.empty((max(seg, i.size), 3), np.int32), 0
            np.minimum(i, j, out=found[n:n + i.size, 0])
            np.maximum(i, j, out=found[n:n + i.size, 1])
            found[n:n + i.size, 2] = w32[upper].view(np.int32)
            n += i.size
    del buf, P, X
    parts.append(found[:n])
    found = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return found[:, 0], found[:, 1], found[:, 2].view(np.float32)


def _cosines(A: np.ndarray, B: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """A @ B.T in float64 into the front of buf: the build's one GEMM."""
    return np.matmul(A, B.T, out=buf[:len(A) * len(B)].reshape(len(A), len(B)))


def _balls(U: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, list]:
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
    triangle inequality on the sphere rules out every other pair."""
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
    near = np.empty((n, m), dtype=bool)  # near[b, j]: row j may reach ball b
    for s in range(0, m, _SCAN_ROWS):
        np.greater_equal(centres @ P[s:s + _SCAN_ROWS].T, cos_reach, out=near[:, s:s + _SCAN_ROWS])
    groups = [(lo, hi, np.concatenate([np.arange(lo, hi), hi + np.flatnonzero(near[b, hi:])]))
              for b, (lo, hi) in enumerate(balls)]
    if bounds[-1] < m:
        groups.append((bounds[-1], m, np.arange(bounds[-1], m)))
    return order, P, groups


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


def _in_ranges(starts: np.ndarray, stops: np.ndarray, n: int) -> np.ndarray:
    """A boolean mask over [0, n), True on each [starts[k], stops[k]):
    non-empty, disjoint ranges in ascending order."""
    edge = np.zeros(n + 1, dtype=np.int8)
    edge[starts] = 1
    edge[stops] -= 1  # after the starts: a range may start where the previous one stops
    return np.cumsum(edge[:-1], dtype=np.int8).view(bool)


@dataclass(frozen=True)
class DegreeStats:
    min: int
    mean: float
    max: int

    def to_dict(self) -> dict:
        return {"min": self.min, "mean": self.mean, "max": self.max}


def degree_stats(G: NeighborGraph) -> DegreeStats:
    """Neighbor-count summary, self-loops excluded."""
    degrees = np.diff(G.indptr) - 1
    return DegreeStats(
        min=int(degrees.min()),
        mean=float(degrees.mean()),
        max=int(degrees.max()),
    )


def save_graph(path: str | Path, G: NeighborGraph) -> None:
    with open(path, "wb") as f:
        f.write(GRAPH_MAGIC)
        f.write(struct.pack("<QdQ", G.m, G.tau, G.nnz))
        for a, dtype in ((G.indptr, "<i8"), (G.indices, "<i4"), (G.weights, "<f4")):
            np.ascontiguousarray(a, dtype=dtype).tofile(f)  # no copy when a has the dtype


def load_graph(path: str | Path) -> NeighborGraph:
    with open(path, "rb") as f:
        head = f.read(32)
        if len(head) < 32 or head[:8] != GRAPH_MAGIC:  # a RELGRPH1 cache included
            raise FormatError(f"{path}: no RELGRPH2 graph header; rebuild it with `relpick graph`")
        m, tau, nnz = struct.unpack("<QdQ", head[8:32])
        need = (m + 1) * 8 + nnz * 4 + nnz * 4
        if os.fstat(f.fileno()).st_size - 32 != need:
            raise FormatError(f"{path}: payload size mismatch (expected {need} bytes)")
        indptr = np.fromfile(f, dtype="<i8", count=m + 1)
        indices = np.fromfile(f, dtype="<i4", count=nnz)
        weights = np.fromfile(f, dtype="<f4", count=nnz)
    G = NeighborGraph(m=m, tau=tau, indptr=indptr, indices=indices, weights=weights)
    G.validate()
    return G
