"""Comparison selectors that need no training dynamics.

Uniform random, highest-confidence-first (small-loss proxy), smallest
softmax margin, and k-center greedy on embedding distances. External
per-example scores (forgetting counts, gradient norms, ...) can be fed
through the confidence-based selectors since only the ranking matters.
"""

from __future__ import annotations

import operator
import time

import numpy as np

from .errors import DataError
from .dataspec import ConfidenceVector, EmbeddingMatrix, ProbabilityMatrix, confidence_from_probs
from .pruner import check_subset


def _check_budget(s: int, m: int) -> None:
    try:
        operator.index(s)  # unlike int(), refuses 2.5
    except TypeError:
        raise DataError(f"budget {s!r} is not an integer") from None
    if not (1 <= s <= m):
        raise DataError(f"budget {s} out of range [1, {m}]")


def select_uniform(m: int, s: int, seed: int) -> np.ndarray:
    """s distinct indices drawn uniformly without replacement."""
    _check_budget(s, m)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(m, size=s, replace=False)).astype(np.int64)


def select_small_loss(C: ConfidenceVector, s: int) -> np.ndarray:
    """The s highest-confidence examples (small warm-up loss proxy);
    ties break toward the lowest index."""
    _check_budget(s, C.m)
    # stable sort on -C: equal confidences keep ascending index order
    order = np.argsort(-C.values, kind="stable")
    return np.sort(order[:s]).astype(np.int64)


def select_margin(P: ProbabilityMatrix, s: int) -> np.ndarray:
    """The s examples with the smallest top-1/top-2 probability gap, the
    ``diffprob`` confidence; ties break toward the lowest index."""
    margin = confidence_from_probs(P, "diffprob").values
    _check_budget(s, P.m)
    order = np.argsort(margin, kind="stable")
    return np.sort(order[:s]).astype(np.int64)


def select_kcenter(
    E: EmbeddingMatrix, s: int, seed_index: int = 0
) -> tuple[np.ndarray, list[float]]:
    """Farthest-point-first selection on Euclidean distances.

    Each step recomputes the distance of every point to the full center
    set, so its cost grows with the number of centers (the behavior the
    scaling bench exercises). With k centers, the distances fill the
    first k m entries of one float64 buffer of (s - 1) m, allocated up
    front, as a (k, m) view; no other temporary grows with k. Returns
    the selection order and per-step wall times.
    """
    m = E.m
    _check_budget(s, m)
    if not (0 <= seed_index < m):
        raise DataError(f"seed index {seed_index} out of range [0, {m})")
    X = E.data.astype(np.float64)
    sq = np.einsum("ij,ij->i", X, X)
    order = [seed_index]
    selected = np.zeros(m, dtype=bool)
    selected[seed_index] = True
    buf = np.empty((s - 1) * m)
    times: list[float] = []
    for _ in range(s - 1):
        t0 = time.perf_counter()
        cover = np.maximum(_nearest_sq(X, sq, order, buf), 0.0)
        cover[selected] = -np.inf
        x = int(np.argmax(cover))  # first max: lowest index on ties
        order.append(x)
        selected[x] = True
        times.append(time.perf_counter() - t0)
    return np.asarray(order, dtype=np.int64), times


def covering_radius(E: EmbeddingMatrix, centers) -> float:
    """Max distance from any point to its nearest center. Centers are
    checked as a subset is: integer ids in [0, m), none repeated, and at
    least one."""
    centers = check_subset(E.m, centers)
    if not centers:
        raise DataError("covering radius needs at least one center")
    X = E.data.astype(np.float64)
    d2 = _nearest_sq(X, np.einsum("ij,ij->i", X, X), centers, np.empty(len(centers) * E.m))
    return float(np.sqrt(np.maximum(d2, 0.0)).max())


def _nearest_sq(X: np.ndarray, sq: np.ndarray, centers: list[int], buf: np.ndarray) -> np.ndarray:
    """Squared distance of every row to its nearest center, the least
    ||c||^2 - 2 c.x + ||x||^2, formed in place in the first k m entries of
    ``buf`` as a (k, m) array, one row per center."""
    D = buf[: len(centers) * len(X)].reshape(len(centers), len(X))
    np.matmul(X[centers], X.T, out=D)
    D *= -2.0
    D += sq
    D += sq[centers][:, None]
    return D.min(axis=0)
