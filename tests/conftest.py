import math

import numpy as np
import pytest

from relpick import ConfidenceVector, EmbeddingMatrix, build_graph
from relpick.simgraph import unit_rows


@pytest.fixture
def orthogonal3():
    """Three mutually orthogonal unit rows: the graph is diagonal."""
    E = EmbeddingMatrix(np.eye(3, dtype=np.float32), normalized=True)
    C = ConfidenceVector([0.9, 0.5, 0.1])
    G = build_graph(E, 0.5)
    return E, C, G


@pytest.fixture
def identical2():
    """Two identical rows: cross edges with weight 1."""
    E = EmbeddingMatrix(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32), normalized=True)
    C = ConfidenceVector([0.5, 0.5])
    G = build_graph(E, 0.9)
    return E, C, G


def random_unit_rows(rng, m, d):
    rows = rng.standard_normal((m, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(rows.astype(np.float32))


def boundary_pair(tau):
    """Two rows whose cosine is below tau but rounds to float32(tau)."""
    t32 = np.float32(tau)
    assert float(t32) < tau, "no float32 weight below tau rounds to float32(tau)"
    # rows e1 and (1, t) have cos = 1 / sqrt(1 + t^2); step t one float32
    # ulp at a time until the cosine lands just below tau
    t = np.float32(math.sqrt(1.0 / float(t32) ** 2 - 1.0))
    for _ in range(64):
        E = EmbeddingMatrix(np.array([[1.0, 0.0], [1.0, t]], dtype=np.float32))
        U = unit_rows(E)
        cos = float((U @ U.T)[0, 1])
        if cos < tau and np.float32(cos) == t32:
            return E
        t = np.nextafter(t, np.float32(np.inf if cos >= tau else -np.inf))
    raise AssertionError(f"no float32 boundary pair found for tau={tau!r}")


def rescaled_duplicates(seed=0, n=12, d=64):
    """Each row four times at different scales: after unit_rows, some float64
    cosines between copies exceed 1."""
    base = np.random.default_rng(seed).standard_normal((n, d))
    rows = np.concatenate([base, 3.0 * base, 0.1 * base, 7.3 * base])
    return EmbeddingMatrix(rows.astype(np.float32))
