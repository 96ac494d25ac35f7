"""Independent brute-force references and synthetic instance generation.

Nothing here reuses the graph/accumulator machinery: the naive objective
is a literal transcription of the definitions straight from raw
embeddings, and the optimum is found by exhaustive enumeration. These
are the ground truth the fast paths are tested against. The scorers
share only the input gate, ``pruner.check_inputs``: a confidence vector
of another length than the population is a DataError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DataError, SizeGuardError
from .dataspec import (
    ConfidenceVector,
    EmbeddingMatrix,
    LabelVector,
    NoiseFlagVector,
)
from .pruner import check_inputs
from .simgraph import NeighborGraph

ENUMERATION_LIMIT = 10**6


def naive_objective(E: EmbeddingMatrix, C: ConfidenceVector, tau: float, S, u) -> float:
    """Triple-loop objective from raw embeddings: for every example i,
    accumulate the edge-weighted confidences over the subset, apply the
    utility, and sum. ``u`` is any scalar-or-array callable with u(0) = 0.

    The rows are scaled to unit length in float64, and a pair's weight is
    the float32 nearest the exact dot product of its unit rows (ties to
    even), an edge when it reaches tau."""
    data = E.data.astype(np.float64)
    norms = np.linalg.norm(data, axis=1)
    if np.any(norms == 0.0):
        raise DataError("zero-norm embedding row; cosine undefined")
    U = data / norms[:, None]
    subset = [int(j) for j in S]
    total = 0.0
    for i in range(U.shape[0]):
        cn_i = 0.0
        for j in subset:
            w = _pair_weight(U[i], U[j])
            if w >= tau:
                cn_i += w * float(C.values[j])
        total += float(u(cn_i))
    return total


def _pair_weight(x: np.ndarray, y: np.ndarray) -> float:
    """The float32 nearest the exact x . y, ties to even. For rows of
    length d and norm about 1, the float64 dot, summed in any order, lies
    within d u / (1 - d u) (u = 2^-53) of the exact one; the bound below
    doubles that. Unless a float32 rounding midpoint lies within the bound
    of the float64 dot, the exact dot rounds as the float64 one does; else
    a Fraction sum decides."""
    dot = float(np.dot(x, y))
    w = np.float32(dot)
    below, above = np.nextafter(w, np.float32(-np.inf)), np.nextafter(w, np.float32(np.inf))
    mids = ((float(below) + float(w)) / 2, (float(w) + float(above)) / 2)  # exact in float64
    du = x.size * 2.0 ** -53
    if min(abs(dot - mid) for mid in mids) > 2 * du / (1 - du):
        return float(w)
    exact = sum((Fraction(p) * Fraction(q) for p, q in zip(x.tolist(), y.tolist())), Fraction(0))
    # nearest of the three, ties to the even significand
    return float(min((below, w, above),
                     key=lambda f: (abs(Fraction(float(f)) - exact), int(f.view(np.uint32)) & 1)))


def dense_objective(W: np.ndarray, C: ConfidenceVector, S, u) -> float:
    """Objective of subset S on the dense weight matrix W. Columns are taken
    in sorted order, so a set scores the same in whatever order it is given."""
    check_inputs(W.shape[0], C)
    return _dense_score(W, C.values, sorted(int(i) for i in S), u)


def _dense_score(W: np.ndarray, conf: np.ndarray, idx: list[int], u) -> float:
    """``dense_objective`` of the ascending ids ``idx``, its inputs unchecked."""
    return float(np.sum(u(W[:, idx] @ conf[idx])))


def check_enumeration(m: int, s: int) -> None:
    """The guard of ``brute_force_optimum``, which needs only m and s: a
    subset size outside [1, m] is a DataError, and more than
    ``ENUMERATION_LIMIT`` subsets a SizeGuardError."""
    if not (1 <= s <= m):
        raise DataError(f"subset size {s} out of range [1, {m}]")
    n_combos = math.comb(m, s)
    if n_combos > ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"C({m},{s}) = {n_combos} subsets exceeds the enumeration limit "
            f"of {ENUMERATION_LIMIT}"
        )


def brute_force_optimum(
    G: NeighborGraph, C: ConfidenceVector, s: int, u
) -> tuple[tuple[int, ...], float]:
    """Exhaustively evaluate every size-s subset; ties resolve to the
    lexicographically smallest subset. Guarded against blow-up. The
    inputs are checked once, before the enumeration."""
    check_inputs(G.m, C)
    check_enumeration(G.m, s)
    W = G.dense_weights()
    best_subset: tuple[int, ...] | None = None
    best_obj = -np.inf
    for combo in combinations(range(G.m), s):  # lexicographic order
        obj = _dense_score(W, C.values, list(combo), u)
        if obj > best_obj + 1e-12:
            best_subset, best_obj = combo, obj
    return best_subset, best_obj


def random_instance(
    seed: int,
    m: int,
    d: int,
    c: int,
    cluster_spread: float = 0.1,
    noise_fraction: float = 0.0,
) -> tuple[EmbeddingMatrix, ConfidenceVector, LabelVector, NoiseFlagVector]:
    """Synthetic clustered instance. Clean examples sit near their class
    center with confidences in [0.6, 0.95]; noisy ones point in random
    off-cluster directions with confidences in [0.05, 0.35]."""
    if m < 1 or d < 1 or c < 1:
        raise DataError("m, d, c must all be >= 1")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if not (0.0 <= noise_fraction <= 1.0):
        raise DataError("noise_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, c, size=m)
    n_noisy = int(round(noise_fraction * m))
    noisy = np.zeros(m, dtype=bool)
    noisy[rng.choice(m, size=n_noisy, replace=False)] = True

    # in place: the generator holds about two float64 copies of the rows
    rows = rng.standard_normal((m, d))
    rows *= cluster_spread
    rows += centers[labels]
    off_cluster = rng.standard_normal((m, d))
    rows[noisy] = off_cluster[noisy]
    del off_cluster
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0
    rows /= norms[:, None]
    # renormalize after the float32 cast, so that each float32 row has
    # unit norm within 1e-6
    rows[:] = rows.astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows.astype(np.float32)

    conf = rng.uniform(0.6, 0.95, size=m)
    conf[noisy] = rng.uniform(0.05, 0.35, size=n_noisy)
    for a in (rows, conf, labels, noisy):  # made here: read-only, so the types share them
        a.setflags(write=False)

    return (
        EmbeddingMatrix(rows),
        ConfidenceVector(conf),
        LabelVector(labels),
        NoiseFlagVector(noisy),
    )
