"""Library operations the benchmark times in a child process, as the CLI
has no command for them: the graph-free surrogate scan and the k-center
baseline. The traced run calls the same functions in-process.

    python3 perfbench/libop.py streaming --embeddings E --confidences C \
        --tau T --budget S --out R
    python3 perfbench/libop.py kcenter --embeddings E --budget S --out R

`src/` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from relpick import baselines, pruner
from relpick.dataspec import SelectionConfig, ingest_embeddings, load_confidences


def _no_span(name: str):
    return nullcontext()


def streaming(emb, conf, tau: float, budget: int, out, span=_no_span):
    with span("dataspec.ingest_embeddings"):
        E = ingest_embeddings(emb)
    with span("dataspec.load_confidences"):
        C = load_confidences(conf)
    with span("pruner.select_streaming"):
        result = pruner.select_streaming(E, C, SelectionConfig(budget=budget, tau=tau))
    with span("cli.write_result"):
        Path(out).write_text(result.to_json() + "\n")
    return result


def kcenter(emb, budget: int, out, span=_no_span):
    with span("dataspec.ingest_embeddings"):
        E = ingest_embeddings(emb)
    with span("baselines.select_kcenter"):
        order, times = baselines.select_kcenter(E, budget, seed_index=0)
    Path(out).write_text(json.dumps({"order": order.tolist(), "wall_times": times}) + "\n")
    return order, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="libop")
    sub = parser.add_subparsers(dest="op", required=True)
    p = sub.add_parser("streaming")
    p.add_argument("--confidences", required=True)
    p.add_argument("--tau", type=float, required=True)
    sub.add_parser("kcenter")
    for p in sub.choices.values():
        p.add_argument("--embeddings", required=True)
        p.add_argument("--budget", type=int, required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.op == "streaming":
        streaming(args.embeddings, args.confidences, args.tau, args.budget, args.out)
    else:
        kcenter(args.embeddings, args.budget, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
