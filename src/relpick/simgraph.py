"""Thresholded cosine-similarity neighborhood graph.

The graph is exact: every pair whose cosine similarity, rounded to its
stored float32 weight, reaches the threshold ``tau`` gets an edge,
including the self-loop with weight exactly 1 (``edge_weights`` holds
this rule for the build and for the streaming scan alike). The rule
screens the float64 cosines against ``edge_floor(tau)``, the smallest
float64 whose float32 rounding reaches ``edge_threshold(tau)``, and casts
only the survivors to float32.

Construction is the brute-force O(m^2 d) pairwise scan in float64 over
the upper triangle only: a block of rows i is multiplied against rows
j >= i, and each edge found above the diagonal is mirrored into row j.
A block holds at most 64 MiB of cosines, or one row when a row is
larger, whatever m is. The CSR is assembled in O(nnz) plus one stable
sort of the upper edges' column ids: row i holds its mirrored edges
(columns < i), then its self-loop and the edges it found (columns >= i),
so columns are sorted per row. The result is deterministic and
independent of the block size. Stored weights always lie in [tau, 1].

Column ids are int32 everywhere: in the build, in ``NeighborGraph`` and
in the cache, so m must stay below 2^31. Row offsets are int64.

Cache file format: 8-byte magic ``RELGRPH2``, u64 m, f64 tau, u64 nnz,
then (m+1) i64 row offsets, nnz i32 column ids, nnz f32 weights, all
little-endian. Any other header, a ``RELGRPH1`` cache's (u64 column
ids) included, is refused with a request to rebuild the cache.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .dataspec import EmbeddingMatrix

GRAPH_MAGIC = b"RELGRPH2"

_BLOCK_BYTES = 64 << 20  # float64 cosines per build block, unless one row is larger


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
        by_col = np.argsort(up_cols.astype(np.uint16), kind="stable")
        if self.m > 1 << 16:
            high = (up_cols >> 16).astype(np.uint16)[by_col]
            by_col = by_col[np.argsort(high, kind="stable")]
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


def edge_weights(sims: np.ndarray, first: int, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The edge rule on a float64 block of cosines whose row k has its
    self-loop in column first + k: sets the self-loops to 1 in place and
    returns the edges' positions in the raveled block and their float32
    weights. No clip: cosines a few ulp above 1 round to 1.0, and those
    below -1 are never edges (tau > 0)."""
    np.fill_diagonal(sims[:, first:], 1.0)
    flat = np.flatnonzero(sims >= floor)
    return flat, sims.ravel()[flat].astype(np.float32)


def edge_rule(tau: float):  # edge_weights with floor = edge_floor(tau) computed once
    return partial(edge_weights, floor=edge_floor(tau))


def build_graph(E: EmbeddingMatrix, tau: float) -> NeighborGraph:
    if not (0.0 < tau <= 1.0):
        raise ConfigError(f"tau must lie in (0, 1], got {tau}")
    own, col, w = _upper_edges(E, edge_rule(tau))
    m = own.size
    mirrored = np.bincount(col, minlength=m) - 1  # less the self-loop
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(own + mirrored, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    weights = np.empty(indptr[-1], dtype=np.float32)
    # Row i is [mirrored edges, columns < i][self-loop][own edges, columns > i].
    # The own edges and the self-loop fill the row's tail in row-major order.
    tail = _in_ranges(indptr[:-1] + mirrored, indptr[1:], indptr[-1])
    indices[tail], weights[tail] = col, w
    del tail
    # A stable sort by column lists each column j's edges in ascending row i,
    # ending with the self-loop (j, j): row j's head, the self-loop included.
    by_col = np.argsort(col, kind="stable")
    del col
    head = _in_ranges(indptr[:-1], indptr[:-1] + mirrored + 1, indptr[-1])
    indices[head] = np.repeat(np.arange(m, dtype=np.int32), own)[by_col]
    weights[head] = w[by_col]
    return NeighborGraph(m=m, tau=float(tau), indptr=indptr, indices=indices, weights=weights)


def _upper_edges(E: EmbeddingMatrix, rule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (i, j) with i <= j, the self-loops included, in row-major
    order: the count per row i, the column ids and the float32 weights.
    A block of rows i is multiplied only against the rows j >= i."""
    U = unit_rows(E)
    m = U.shape[0]
    step = max(1, _BLOCK_BYTES // (8 * m))  # rows per block
    buf = np.empty(min(step, m) * m)  # one block of cosines, reused: no page faults per block
    own = np.zeros(m, dtype=np.int64)
    cols, ws = [], []
    for start in range(0, m, step):
        block, width = U[start:start + step], m - start
        sims = buf[:len(block) * width].reshape(len(block), width)
        flat, w32 = rule(np.matmul(block, U[start:].T, out=sims), 0)
        r, c = np.divmod(flat, width)
        upper = c >= r  # the block's diagonal square below it is mirrored from earlier rows
        own[start:start + len(block)] = np.bincount(r[upper], minlength=len(block))
        cols.append((c[upper] + start).astype(np.int32))
        ws.append(w32[upper])
    return own, np.concatenate(cols), np.concatenate(ws)


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
        f.write(np.ascontiguousarray(G.indptr, dtype="<i8").tobytes())
        f.write(np.ascontiguousarray(G.indices, dtype="<i4").tobytes())
        f.write(np.ascontiguousarray(G.weights, dtype="<f4").tobytes())


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
