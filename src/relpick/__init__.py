"""relpick: noise-robust data pruning by greedy maximization of
neighborhood-confidence coverage over a thresholded cosine graph."""

from .dataspec import (
    ConfidenceVector,
    EmbeddingMatrix,
    LabelVector,
    NoiseFlagVector,
    ProbabilityMatrix,
    SelectionConfig,
    SelectionResult,
    confidence_from_probs,
    ingest_embeddings,
)
from .errors import ConfigError, DataError, FormatError, RelpickError, SizeGuardError
from .pruner import Utility, evaluate_subset, objective, select
from .simgraph import NeighborGraph, build_graph, degree_stats

__version__ = "0.1.0"

__all__ = [
    "ConfidenceVector",
    "ConfigError",
    "DataError",
    "EmbeddingMatrix",
    "FormatError",
    "LabelVector",
    "NeighborGraph",
    "NoiseFlagVector",
    "ProbabilityMatrix",
    "RelpickError",
    "SelectionConfig",
    "SelectionResult",
    "SizeGuardError",
    "Utility",
    "build_graph",
    "confidence_from_probs",
    "degree_stats",
    "evaluate_subset",
    "ingest_embeddings",
    "objective",
    "select",
]
