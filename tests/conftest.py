import math
from fractions import Fraction

import numpy as np
import pytest

from relpick import ConfidenceVector, EmbeddingMatrix, build_graph
from relpick.simgraph import unit_rows


@pytest.fixture
def orthogonal3():
    """Three mutually orthogonal unit rows: the graph is diagonal."""
    E = EmbeddingMatrix(np.eye(3, dtype=np.float32))
    C = ConfidenceVector([0.9, 0.5, 0.1])
    G = build_graph(E, 0.5)
    return E, C, G


@pytest.fixture
def identical2():
    """Two identical rows: cross edges with weight 1."""
    E = EmbeddingMatrix(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32))
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


def band_pair(tries=300):
    """Two float32 rows of exact unit norm, so that ``unit_rows`` keeps them
    as they are, whose exact cosine lies within 1e-20 of a float32 rounding
    midpoint in [0.5, 1), and whose float64 cosines from a GEMM (U @ U.T)
    and from a gemv (U @ U[0]) round to different float32 weights. Returns
    the rows and the exact cosine (a Fraction).

    The rows share a bulk of products near the midpoint, six products
    below half a float64 ulp, which one summation order drops and another
    keeps, and two tuning products that put the exact sum on the midpoint;
    each row's norm is filled up to 1 on coordinates the other row leaves
    zero."""
    F = lambda a: Fraction(float(a))  # noqa: E731
    d = 26
    for seed in range(tries):
        rng = np.random.default_rng(seed)
        x, y = np.zeros(d, np.float32), np.zeros(d, np.float32)
        x[:4] = rng.uniform(0.2, 0.45, 4)
        y[:4] = x[:4] + rng.uniform(-0.03, 0.03, 4)
        x[6:12] = rng.uniform(1, 2, 6) * 2.0 ** -27
        y[6:12] = rng.uniform(1, 2, 6) * 2.0 ** -28
        x[4], x[5] = 2.0 ** -9, 2.0 ** -30
        dot = sum(F(p) * F(q) for p, q in zip(x, y))
        mid = (math.floor(dot * 2 ** 24) + Fraction(1, 2)) / 2 ** 24
        y[4] = np.float32(float((mid - dot) / F(x[4])))
        y[5] = np.float32(float((mid - dot - F(x[4]) * F(y[4])) / F(x[5])))
        for v, free in ((x, range(12, 19)), (y, range(19, 26))):
            rest = 1 - sum(F(p) ** 2 for p in v)
            for k in free:
                v[k] = math.sqrt(max(0.0, float(rest)))
                while F(v[k]) ** 2 > rest:
                    v[k] = np.nextafter(v[k], np.float32(0))
                rest -= F(v[k]) ** 2
        perm = rng.permutation(d)
        E = EmbeddingMatrix(np.stack([x[perm], y[perm]]))
        U = unit_rows(E)
        exact = sum(F(p) * F(q) for p, q in zip(U[0], U[1]))
        if (np.array_equal(U, E.data.astype(np.float64)) and Fraction(1, 2) <= mid < 1
                and abs(exact - mid) < 1e-20
                and np.float32((U @ U.T)[0, 1]) != np.float32((U @ U[0])[1])):
            return E, exact
    raise AssertionError("no pair whose GEMM and gemv cosines round apart")
