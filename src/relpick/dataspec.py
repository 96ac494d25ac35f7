"""Core domain types, validation, and file ingestion/persistence.

All array-backed types are immutable after construction (the underlying
numpy buffers are marked read-only) and therefore safe to share across
threads. Each converts its input through ``_array``, which refuses, with
DataError, the wrong rank or an empty axis, a non-finite float, and a
cast to an integer or boolean dtype that changes a value: labels of 0.5
or 1e20 and noise flags of 2.0 are errors, not 0, -2^63 and True.
Embeddings may round from float64 to float32. A SelectionConfig budget
must be an integer (``operator.index``); 2.5 is a ConfigError.

Binary matrix format: 8-byte magic ``RELPICK1``, then u64 row count,
u64 column count, then rows*cols little-endian float32 values row-major.
Vectors reuse the same container with a single column. Readers pick the
format from the file itself: a file that starts with the magic is binary,
any other is text, one comma-separated row per line (one value per line
for a vector).
"""

from __future__ import annotations

import json
import operator
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

MATRIX_MAGIC = b"RELPICK1"

# Ingested confidences may carry float noise; values this far outside
# [0, 1] are clamped, anything worse is rejected.
CONFIDENCE_SLACK = 1e-6

UTILITY_KINDS = ("tanh", "identity", "piecewise")
SELECTION_RULES = ("surrogate", "exact", "lazy")
DEFAULT_TAU = 0.975  # the similarity threshold when none is given


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _array(values, dtype, ndim: int, what: str) -> np.ndarray:
    """``values`` as a C-contiguous array of ``dtype``, else DataError: a
    rank other than ``ndim`` or an empty axis, a non-finite float, or a
    cast to an integer or boolean dtype that changes a value (0.5 -> 0,
    2.0 -> True, nan -> int64). Rounding to a narrower float is allowed."""
    raw = np.asarray(values)
    with np.errstate(all="ignore"):  # a lossy cast is refused below, not warned about
        a = np.ascontiguousarray(raw, dtype=dtype)
    if a.ndim != ndim or 0 in a.shape:
        raise DataError(f"{what} must be {ndim}-D and non-empty, got shape {a.shape}")
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            raise DataError(f"{what} contains non-finite values")
    elif not np.array_equal(a, raw):
        raise DataError(f"{what} must be {'0 or 1' if a.dtype == bool else 'integers'}")
    return a


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense m x d matrix of per-example representations (float32)."""

    data: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        data = _array(self.data, np.float32, 2, "embedding matrix")
        if self.normalized:
            norms = np.linalg.norm(data.astype(np.float64), axis=1)
            bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
            if bad.size:
                raise DataError(
                    f"normalized flag set but row {bad[0]} has L2 norm {norms[bad[0]]:.8f}"
                )
        object.__setattr__(self, "data", _freeze(data))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ConfidenceVector:
    """Per-example prediction confidence from a warm-up classifier, in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = _array(self.values, np.float64, 1, "confidence vector")
        if v.min() < -CONFIDENCE_SLACK or v.max() > 1.0 + CONFIDENCE_SLACK:
            i = int(np.argmax(np.maximum(-v, v - 1.0)))
            raise DataError(f"confidence value out of [0,1] at index {i}: {v[i]}")
        v = np.clip(v, 0.0, 1.0)
        object.__setattr__(self, "values", _freeze(v))

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ProbabilityMatrix:
    """m x c softmax outputs; every row sums to 1 within 1e-5."""

    data: np.ndarray

    def __post_init__(self):
        p = _array(self.data, np.float64, 2, "probability matrix")
        if p.min() < -CONFIDENCE_SLACK or p.max() > 1.0 + CONFIDENCE_SLACK:
            raise DataError("probability values must lie in [0,1]")
        sums = p.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-5)
        if bad.size:
            raise DataError(f"probability row {bad[0]} sums to {sums[bad[0]]:.8f}, not 1")
        object.__setattr__(self, "data", _freeze(np.clip(p, 0.0, 1.0)))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Per-example (possibly noisy) class ids in [0, class_count)."""

    values: np.ndarray
    class_count: int

    def __post_init__(self):
        v = _array(self.values, np.int64, 1, "label vector")
        if self.class_count < 1:
            raise DataError("class_count must be >= 1")
        if v.min() < 0 or v.max() >= self.class_count:
            raise DataError(
                f"label ids must lie in [0, {self.class_count}), got range "
                f"[{v.min()}, {v.max()}]"
            )
        object.__setattr__(self, "values", _freeze(v))

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class NoiseFlagVector:
    """Ground-truth noisy/clean flags; diagnostic input for test settings."""

    values: np.ndarray

    def __post_init__(self):
        v = _array(self.values, bool, 1, "noise-flag vector")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SelectionConfig:
    """Configuration for one selection run.

    ``rule`` picks the greedy criterion: ``surrogate`` is the cheap
    per-candidate self-gain, ``exact`` the true objective marginal, picked
    by lazy (CELF) greedy, and ``lazy`` another name for ``exact``: one
    computation, with or without ``balanced``. Ties always break toward
    the lowest index.
    """

    budget: int
    tau: float = DEFAULT_TAU
    utility: str = "tanh"
    rule: str = "surrogate"
    balanced: bool = False
    utility_knots: tuple | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "budget", operator.index(self.budget))  # refuses 2.5
        except TypeError:
            raise ConfigError(f"budget must be an integer, got {self.budget!r}") from None
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if not (0.0 < self.tau <= 1.0):
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if self.utility not in UTILITY_KINDS:
            raise ConfigError(f"unknown utility {self.utility!r}, expected one of {UTILITY_KINDS}")
        if self.rule not in SELECTION_RULES:
            raise ConfigError(f"unknown rule {self.rule!r}, expected one of {SELECTION_RULES}")
        if self.utility == "piecewise" and not self.utility_knots:
            raise ConfigError("piecewise utility requires utility_knots")

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.utility_knots is None:
            del d["utility_knots"]
        else:
            d["utility_knots"] = [list(k) for k in self.utility_knots]
        return d


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selection with per-step diagnostics."""

    order: list[int]
    gains: list[float]
    objective_trace: list[float]
    wall_times: list[float]
    config: SelectionConfig
    warnings: list[str] = field(default_factory=list)
    graph: dict | None = None  # provenance of the graph selected on, when known

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise DataError("selection order contains duplicate indices")
        trace = np.asarray(self.objective_trace)
        if trace.size and np.any(np.diff(trace) < -1e-9):
            raise DataError("objective trace must be non-decreasing")

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "order": [int(i) for i in self.order],
            "gains": [float(g) for g in self.gains],
            "objective_trace": [float(v) for v in self.objective_trace],
            "wall_times": [float(t) for t in self.wall_times],
            "config": self.config.to_dict(),
            "warnings": list(self.warnings),
        }
        if self.graph is not None:
            payload["graph"] = self.graph
        return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def write_matrix_binary(path: str | Path, data: np.ndarray) -> None:
    a = np.ascontiguousarray(data, dtype="<f4")
    if a.ndim != 2:
        raise DataError("binary matrix writer expects a 2-D array")
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        f.write(a.tobytes())


def read_matrix(path: str | Path) -> np.ndarray:
    """An m x d float32 matrix: the binary container when the file starts
    with the magic, else text with one comma-separated row per line."""
    with np.errstate(over="ignore"):  # past float32 becomes inf, which the array types refuse
        return _read(path).astype(np.float32, copy=False)


def read_vector(path: str | Path) -> np.ndarray:
    """A float64 vector: a one-column binary container or text matrix."""
    a = _read(path)
    if a.shape[1] != 1:
        raise FormatError(f"{path}: expected a single-column vector, got {a.shape[1]} columns")
    return a[:, 0].astype(np.float64)


def _read(path: str | Path) -> np.ndarray:
    """float32 from a binary container, float64 from text."""
    with open(path, "rb") as f:
        if f.read(8) == MATRIX_MAGIC:
            head = f.read(16)
            if len(head) < 16:
                raise FormatError(f"{path}: missing or corrupt matrix header")
            m, d = struct.unpack("<QQ", head)
            size = os.fstat(f.fileno()).st_size - 24
            expected = m * d * 4
            if size != expected:
                raise FormatError(
                    f"{path}: header says {m}x{d} ({expected} payload bytes) but file has {size}"
                )
            return np.fromfile(f, dtype="<f4", count=m * d).reshape(m, d)
    return _read_text(path)


def _read_text(path: str | Path) -> np.ndarray:
    # Undecodable bytes become U+FFFD, which float() rejects at their line.
    flat: list[float] = []
    width = None
    with open(path, encoding="utf-8", errors="replace") as f:
        # A single column, one float() per non-blank line, takes this one
        # pass; any text it rejects is read again by the loop below, which
        # names the line and the fault.
        try:
            flat = list(map(float, filter(None, map(str.strip, f))))
        except ValueError:
            f.seek(0)
        if flat:
            return np.array(flat, dtype=np.float64).reshape(-1, 1)
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise FormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(tokens)}"
                )
            try:
                flat.extend(map(float, tokens))
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
    if width is None:
        raise FormatError(f"{path}: empty text file")
    return np.array(flat, dtype=np.float64).reshape(-1, width)


def write_vector_text(path: str | Path, values: np.ndarray) -> None:
    with open(path, "w") as f:
        for v in np.asarray(values).ravel():
            f.write(f"{float(v)!r}\n")


def write_vector_binary(path: str | Path, values: np.ndarray) -> None:
    write_matrix_binary(path, np.asarray(values, dtype=np.float32).reshape(-1, 1))


def _mean_rows(data: np.ndarray, k: int) -> np.ndarray:
    m, d = data.shape
    if m % k != 0:
        raise DataError(f"row count {m} not divisible by group size {k}")
    grouped = data.astype(np.float64).reshape(m // k, k, d).mean(axis=1)
    norms = np.linalg.norm(grouped, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"group {zero[0]} averages to a zero vector; cannot normalize")
    return (grouped / norms[:, None]).astype(np.float32)


def ingest_embeddings(path: str | Path, average_groups: int | None = None) -> EmbeddingMatrix:
    """Load an embedding matrix, optionally mean-reducing groups of
    ``average_groups`` consecutive rows (one group per example, e.g.
    multiple augmentation embeddings) and unit-normalizing the result.
    """
    E = EmbeddingMatrix(read_matrix(path))
    if average_groups is None:
        return E
    if average_groups < 1:
        raise ConfigError("average_groups must be >= 1")
    return EmbeddingMatrix(_mean_rows(E.data, average_groups), normalized=True)


def load_confidences(path: str | Path) -> ConfidenceVector:
    return ConfidenceVector(read_vector(path))


def load_labels(path: str | Path) -> LabelVector:
    ids = _array(read_vector(path), np.int64, 1, f"{path}: labels")
    return LabelVector(ids, class_count=int(ids.max()) + 1)


def load_noise_flags(path: str | Path) -> NoiseFlagVector:
    raw = read_vector(path)
    if not np.isin(raw, (0.0, 1.0)).all():
        raise DataError(f"{path}: noise flags must be 0 or 1")
    return NoiseFlagVector(raw)


def confidence_from_probs(P: ProbabilityMatrix, metric: str = "maxprob") -> ConfidenceVector:
    """Collapse softmax rows to a single confidence per example.

    ``maxprob`` takes the top probability; ``diffprob`` the gap between
    the top two (requires at least two classes).
    """
    if metric == "maxprob":
        return ConfidenceVector(P.data.max(axis=1))
    if metric == "diffprob":
        if P.c < 2:
            raise ConfigError("diffprob needs at least 2 classes")
        top2 = np.sort(P.data, axis=1)[:, -2:]
        return ConfidenceVector(top2[:, 1] - top2[:, 0])
    raise ConfigError(f"unknown confidence metric {metric!r}")
