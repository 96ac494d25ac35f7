"""Command-line surface: graph building, selection, oracle checks, and
the scaling bench.

Exit codes: 0 success, 2 usage/config, 3 data/format (including a file
that cannot be read or written, and input files of different lengths),
4 size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import baselines, oracle, pruner, simgraph
from .dataspec import (
    DEFAULT_TAU,
    SELECTION_RULES,
    ConfidenceVector,
    ProbabilityMatrix,
    SelectionConfig,
    check_tau,
    confidence_from_probs,
    ingest_embeddings,
    load_confidences,
    load_labels,
    read_matrix,
)
from .errors import ConfigError, DataError, FormatError, RelpickError

BENCH_MIN_M = 512


def _add_embedding_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", required=True, help="embedding matrix file (binary or CSV)")
    p.add_argument("--average-groups", type=int, default=None,
                   help="mean-reduce groups of K consecutive rows, then unit-normalize")


def _add_selection_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--confidences", help="confidence vector file (binary, or one value per line)")
    src.add_argument("--probs", help="softmax matrix file (binary or CSV)")
    p.add_argument("--metric", choices=("maxprob", "diffprob"), default=None,
                   help="confidence derived from --probs (default: maxprob)")
    p.add_argument("--utility", choices=tuple(pruner.UTILITIES), default="tanh")


def _load_embeddings(args):
    return ingest_embeddings(args.embeddings, average_groups=args.average_groups)


def _selection_config(args, **fields) -> SelectionConfig:
    """The run's SelectionConfig from --budget and --utility, and ``fields``.
    Every usage error of select and oracle is refused here, before any
    file is read."""
    if args.confidences and args.metric:
        raise ConfigError("--metric applies only to --probs")
    return SelectionConfig(budget=args.budget, utility=args.utility, **fields)


def _load_confidence(args) -> ConfidenceVector:
    if args.confidences:
        return load_confidences(args.confidences)
    return confidence_from_probs(ProbabilityMatrix(read_matrix(args.probs)),
                                 metric=args.metric or "maxprob")


def _read_order(path: str):
    """The ``order`` of a selection result JSON file."""
    try:
        return json.loads(Path(path).read_text())["order"]
    except (ValueError, KeyError, TypeError) as e:  # not JSON, or no "order" key
        raise FormatError(f"{path}: not a selection result with an 'order' key ({e})") from None


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` path whose directory does not exist (exit 3), so
    that a run fails before its work rather than at the write."""
    if out and not Path(out).parent.is_dir():
        raise DataError(f"--out {out}: no such directory {Path(out).parent}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_graph(args) -> int:
    check_tau(args.tau)  # a usage error, refused before the file is read
    _check_out(args.out)
    E = _load_embeddings(args)
    G = simgraph.build_graph(E, args.tau)
    if args.out:
        simgraph.save_graph(args.out, G)
    print(json.dumps({"schema": 1, "m": G.m, **simgraph.graph_summary(G)}, sort_keys=True))
    return 0


def cmd_select(args) -> int:
    # every input is checked before the graph is built or loaded, the slow
    # part of a run
    cfg = _selection_config(args, tau=DEFAULT_TAU if args.tau is None else args.tau,
                            rule=args.rule, balanced=args.balanced)
    _check_out(args.out)
    E = _load_embeddings(args)
    C = _load_confidence(args)
    labels = load_labels(args.labels) if args.labels else None
    pruner.check_inputs(E.m, C, labels, cfg)
    if args.graph:  # a cache of another size or tau is refused from its header alone
        m, tau, _ = simgraph.graph_header(args.graph)
        if m != E.m:
            raise DataError(f"graph size {m} does not match {E.m} embeddings")
        if args.tau is not None and args.tau != tau:
            raise ConfigError(f"--tau {args.tau} differs from the graph cache's tau {tau}")
        del E  # the cache holds all that a selection reads: free the matrix before the load
        G = simgraph.load_graph(args.graph)
        result = replace(pruner.select(G, C, labels, cfg),
                         graph={"source": "cache", **simgraph.graph_summary(G)})
    else:
        result = pruner.select_embeddings(E, C, labels, cfg)
    _emit(result.to_json(), args.out)
    return 0


def cmd_oracle(args) -> int:
    # the inputs and the enumeration guard are checked before the build
    _selection_config(args, tau=args.tau)
    _check_out(args.out)
    E = _load_embeddings(args)
    C = _load_confidence(args)
    pruner.check_inputs(E.m, C)
    achieved = pruner.check_subset(E.m, _read_order(args.result)) if args.result else None
    if achieved is not None and len(achieved) != args.budget:  # a ratio compares equal sizes
        raise DataError(f"{args.result}: result holds {len(achieved)} picks, not --budget "
                        f"{args.budget}")
    oracle.check_enumeration(E.m, args.budget)
    G = simgraph.build_graph(E, args.tau)
    u = pruner.UTILITIES[args.utility]()
    best, best_obj = oracle.brute_force_optimum(G, C, args.budget, u)
    payload = {
        "schema": 1,
        "optimum": [int(i) for i in best],
        "optimum_objective": best_obj,
        "budget": args.budget,
        "tau": args.tau,
        "utility": args.utility,
    }
    if achieved is not None:
        # scored on the oracle's own dense evaluator, so that a subset
        # compared against itself yields a ratio of exactly 1
        payload["achieved_objective"] = oracle.dense_objective(
            G.dense_weights(), C, achieved, u)
        payload["ratio"] = (
            payload["achieved_objective"] / best_obj if best_obj > 0 else 1.0
        )
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def _bench_config(sizes, d, steps, seed, tau) -> SelectionConfig:
    """The bench's SelectionConfig. Every usage error of ``run_bench``,
    each size's included, is refused here, before any instance is made."""
    if d < 1:
        raise ConfigError(f"bench d must be >= 1, got {d}")
    if seed < 0:
        raise ConfigError(f"bench seed must be >= 0, got {seed}")
    cfg = SelectionConfig(budget=steps, tau=tau, rule="surrogate")
    for m in sizes:
        if m < BENCH_MIN_M:
            raise ConfigError(
                f"bench needs m >= {BENCH_MIN_M} for stable timings; "
                f"got {m} (use the test suite for small instances)"
            )
        if steps > m:
            raise ConfigError(f"steps {steps} exceeds m {m}")
    return cfg


def run_bench(sizes, d=32, steps=100, seed=0, tau=0.8):
    """Per-step selection timings for the greedy engine
    (``pruner.select_embeddings``, surrogate rule) vs k-center.

    The engine takes the path a cold ``relpick select`` takes. Below 128
    steps that is the similarity scan, whose steps each cost one O(m d)
    rescan. From 128 on it is the rows on demand, whose steps are uneven
    (the one step per prefetch call, up to ``pruner._PREFETCH_ROWS`` picks,
    carries the work, and the steps between cost an argmax and a row
    slice), or the whole graph, built before the first step. The ball
    stage and the build are timed in no step. Every size is checked
    before the first one runs. Returns a list of {algorithm, m, step,
    seconds} rows.
    """
    cfg = _bench_config(sizes, d, steps, seed, tau)
    rows = []
    for m in sizes:
        E, C, labels, _ = oracle.random_instance(
            seed=seed, m=m, d=d, c=10, cluster_spread=0.1, noise_fraction=0.2
        )
        result = pruner.select_embeddings(E, C, None, cfg)
        for step, t in enumerate(result.wall_times):
            rows.append({"algorithm": "prune4rel", "m": m, "step": step, "seconds": t})
        _, ktimes = baselines.select_kcenter(E, steps, seed_index=0)
        for step, t in enumerate(ktimes, start=1):
            rows.append({"algorithm": "kcenter", "m": m, "step": step, "seconds": t})
    return rows


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    _bench_config(sizes, args.d, args.steps, args.seed, args.tau)  # usage errors first
    _check_out(args.out)
    rows = run_bench(sizes, d=args.d, steps=args.steps, seed=args.seed, tau=args.tau)
    lines = ["algorithm,m,step,seconds"]
    lines += [f"{r['algorithm']},{r['m']},{r['step']},{r['seconds']:.9f}" for r in rows]
    _emit("\n".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relpick",
        description="Noise-robust data pruning by neighborhood-confidence coverage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and cache the neighborhood graph")
    _add_embedding_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out", help="graph cache path")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("select", help="run greedy subset selection")
    _add_embedding_args(p)
    p.add_argument("--graph", help="pre-built graph cache (skips construction)")
    p.add_argument("--tau", type=float, default=None,
                   help=f"similarity threshold (default: the --graph cache's tau, else "
                        f"{DEFAULT_TAU}); must match the cache's tau when both are given")
    p.add_argument("--rule", choices=SELECTION_RULES, default="surrogate",
                   help="greedy criterion: surrogate self gain (default), or the exact "
                        "marginal; exact and lazy are one CELF computation")
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--labels", help="label vector file (binary, or one class id per line)")
    _add_selection_args(p)
    p.add_argument("--out", help="result JSON path (default: stdout)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("oracle", help="brute-force optimum and approximation ratio")
    _add_embedding_args(p)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    _add_selection_args(p)
    p.add_argument("--result", help="selection result JSON to score against the optimum")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="per-step wall-time scaling: greedy vs k-center")
    p.add_argument("--sizes", default="2048,4096,8192,16384",
                   help="comma-separated population sizes")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--steps", type=int, default=100, help="selection steps per size")
    p.add_argument("--tau", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RelpickError, OSError) as e:  # OSError: a file that cannot be read or written
        print(f"relpick: error: {e}", file=sys.stderr)
        return e.exit_code if isinstance(e, RelpickError) else DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
