"""Thresholded cosine-similarity neighborhood graph.

The graph is exact: every pair whose cosine similarity, rounded to its
stored float32 weight, reaches the threshold ``tau`` gets an edge,
including the self-loop with weight exactly 1 (``edge_weights`` holds
this rule for the build and for the streaming scan alike). Construction
is the brute-force O(m^2 d) pairwise scan in float64, blocked by bytes:
a block of rows holds at most 64 MiB of cosines, or one row when a row
is larger, whatever m is. The result is deterministic and independent
of the block size. Stored weights always lie in [tau, 1].

Cache file format: 8-byte magic ``RELGRPH1``, u64 m, f64 tau, u64 nnz,
then (m+1) u64 row offsets, nnz u64 column indices, nnz f32 weights.
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

GRAPH_MAGIC = b"RELGRPH1"

_BLOCK_BYTES = 64 << 20  # float64 cosines per build block, unless one row is larger


@dataclass(frozen=True)
class NeighborGraph:
    """Symmetric CSR adjacency with weights in [tau, 1] and self-loops."""

    m: int
    tau: float
    indptr: np.ndarray   # int64, shape (m+1,)
    indices: np.ndarray  # int64, neighbor ids, sorted per row
    weights: np.ndarray  # float32, cosine similarities

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row_ids(self) -> np.ndarray:
        """The row of each stored edge, aligned with ``indices``."""
        return np.repeat(np.arange(self.m, dtype=np.int64), np.diff(self.indptr))

    def dense_weights(self) -> np.ndarray:
        """Materialize the m x m weight matrix (small instances only)."""
        W = np.zeros((self.m, self.m), dtype=np.float64)
        W[self.row_ids(), self.indices] = self.weights
        return W

    def validate(self) -> None:
        """Accept exactly what ``build_graph`` writes."""
        if self.indptr.shape != (self.m + 1,) or self.indptr[0] != 0:
            raise DataError("graph: malformed row offsets")
        if np.any(np.diff(self.indptr) < 0):
            raise DataError("graph: row offsets decrease")
        if self.indices.size != self.weights.size or self.indices.size != self.indptr[-1]:
            raise DataError("graph: index/weight arrays inconsistent with offsets")
        if not (0.0 < self.tau <= 1.0):
            raise DataError(f"graph: tau {self.tau} outside (0, 1]")
        if self.nnz and (self.indices.min() < 0 or self.indices.max() >= self.m):
            raise DataError(f"graph: column id outside [0, {self.m})")
        w = self.weights
        if w.size and (w.min() < edge_threshold(self.tau) or w.max() > 1.0):
            raise DataError("graph: edge weight outside [tau, 1]")
        rows = self.row_ids()
        looped = np.zeros(self.m, dtype=bool)
        looped[rows[self.indices == rows]] = True
        if not looped.all():
            raise DataError(f"graph: missing self-loop at row {int(np.argmin(looped))}")
        key = rows * self.m + self.indices
        if (key[1:] <= key[:-1]).any():
            raise DataError("graph: column ids not strictly increasing within a row")
        # Symmetry incl. identical weights: with unique keys, the transposed
        # keys sorted must reproduce the keys, carrying equal weights along.
        key_t = self.indices * self.m + rows
        del rows  # at most four edge-length int64 arrays live at once
        fwd = np.argsort(key_t)
        if not np.array_equal(key_t[fwd], key) or not np.array_equal(w[fwd], w):
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


def edge_weights(sims: np.ndarray, first: int, t32: np.float32) -> tuple[np.ndarray, np.ndarray]:
    """The edge rule on a float64 block of cosine rows first, first + 1, ...
    against all m rows: sets their self-loops to 1 in place and returns the
    float32 weights and the edge mask w32 >= t32. No clip: cosines a few ulp
    above 1 round to 1.0, and those below -1 are never edges (tau > 0)."""
    np.fill_diagonal(sims[:, first:], 1.0)
    w32 = sims.astype(np.float32)
    return w32, w32 >= t32


def edge_rule(tau: float):  # edge_weights with t32 = edge_threshold(tau) computed once
    return partial(edge_weights, t32=edge_threshold(tau))


def build_graph(E: EmbeddingMatrix, tau: float) -> NeighborGraph:
    if not (0.0 < tau <= 1.0):
        raise ConfigError(f"tau must lie in (0, 1], got {tau}")
    U = unit_rows(E)
    rule = edge_rule(tau)
    m = U.shape[0]
    step = max(1, _BLOCK_BYTES // (8 * m))  # rows per block
    indptr = np.zeros(m + 1, dtype=np.int64)  # row degrees, then their running sum
    idx_chunks, w_chunks = [], []
    for start in range(0, m, step):
        w32, keep = rule(U[start:start + step] @ U.T, start)
        rows, cols = np.nonzero(keep)  # row-major: sorted per row
        indptr[start + 1:start + 1 + len(w32)] = np.bincount(rows, minlength=len(w32))
        idx_chunks.append(cols.astype(np.int64))
        w_chunks.append(w32[rows, cols])
    np.cumsum(indptr, out=indptr)
    return NeighborGraph(m=m, tau=float(tau), indptr=indptr, indices=np.concatenate(idx_chunks),
                         weights=np.concatenate(w_chunks))


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
        f.write(np.ascontiguousarray(G.indices, dtype="<i8").tobytes())
        f.write(np.ascontiguousarray(G.weights, dtype="<f4").tobytes())


def load_graph(path: str | Path) -> NeighborGraph:
    with open(path, "rb") as f:
        head = f.read(32)
        if len(head) < 32 or head[:8] != GRAPH_MAGIC:
            raise FormatError(f"{path}: missing or corrupt graph header")
        m, tau, nnz = struct.unpack("<QdQ", head[8:32])
        need = (m + 1) * 8 + nnz * 8 + nnz * 4
        if os.fstat(f.fileno()).st_size - 32 != need:
            raise FormatError(f"{path}: payload size mismatch (expected {need} bytes)")
        indptr = np.fromfile(f, dtype="<i8", count=m + 1)
        indices = np.fromfile(f, dtype="<i8", count=nnz)
        weights = np.fromfile(f, dtype="<f4", count=nnz)
    G = NeighborGraph(m=m, tau=tau, indptr=indptr, indices=indices, weights=weights)
    G.validate()
    return G
