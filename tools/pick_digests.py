"""Compare the picks of two source trees, case by case.

    python3 tools/pick_digests.py PARENT_TREE CHANGE_TREE

Each tree is run in a fresh process that imports relpick from that tree's
`src`, first on PYTHONPATH. The process builds fixed `oracle.random_instance`
instances and digests, on each:

- the graph cache that `simgraph.save_graph` writes;
- `select` under each rule (surrogate, exact, lazy), with and without class
  balancing;
- `select_streaming` at the graph's tau, at budgets of m / 10 and m / 2;
- `relpick select` from files, with no graph cache, through `cli.main`:
  with and without class balancing at budgets of 100 and m / 20, and
  without it at m / 2. Each tree takes the cold path its own rule
  chooses, so two trees with different rules compare their paths case
  by case;
- `relpick select --graph` on the saved cache, through `cli.main`, under
  each rule, with and without class balancing, at a budget of m / 10.

A selection's digest is a sha256 prefix of its (order, gains,
objective_trace), the floats written by `repr`, which round-trips them
exactly; a `relpick select` run's also covers its `config` and
`warnings`. A cold run's `graph` block, which names the path taken and
its counts, is a case of its own ("... graph"), so a change of path
shows apart from the picks; a cached run's block, the cache's summary,
is digested with its picks. A cache's digest is one of its bytes.

Prints one line per case with both trees' digests and "same" or "DIFF",
then exits 1 if any case differs or is missing from a tree, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_CHILD = "--digests-of-this-process"  # the per-tree run, not for direct use
INSTANCES = ((0, 3000), (1, 4500), (2, 6000))  # (seed, m)
D, CLASSES, SPREAD, TAU = 16, 10, 0.1, 0.9
PICKED = ("order", "gains", "objective_trace", "config", "warnings")  # a CLI result's picks


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digests() -> dict:
    """Every case's digest under the relpick that this process imports."""
    import relpick
    from relpick import SelectionConfig, build_graph, cli, dataspec, oracle, pruner, simgraph

    out = {"relpick": relpick.__file__, "cases": {}}
    cases = out["cases"]

    def record(name, r):
        cases[name] = _digest(repr((r.order, r.gains, r.objective_trace)).encode())

    def run_cli(argv) -> dict:
        if cli.main(argv) != 0:
            raise SystemExit(f"relpick {' '.join(argv)} failed")
        return json.loads(Path(argv[argv.index("--out") + 1]).read_text())

    with tempfile.TemporaryDirectory() as tmp:
        for seed, m in INSTANCES:
            E, C, labels, _ = oracle.random_instance(seed, m=m, d=D, c=CLASSES,
                                                     cluster_spread=SPREAD, noise_fraction=0.2)
            G, key = build_graph(E, TAU), f"seed{seed}_m{m}"
            simgraph.save_graph(Path(tmp) / "g.bin", G)
            cases[f"{key} graph"] = _digest((Path(tmp) / "g.bin").read_bytes())
            for rule in ("surrogate", "exact", "lazy"):
                for balanced in (False, True):
                    cfg = SelectionConfig(budget=m // 10, tau=TAU, rule=rule, balanced=balanced)
                    record(f"{key} {rule}{' balanced' if balanced else ''}",
                           pruner.select(G, C, labels if balanced else None, cfg))
            record(f"{key} streaming",
                   pruner.select_streaming(E, C, SelectionConfig(budget=m // 10, tau=TAU)))
            record(f"{key} streaming m/2",
                   pruner.select_streaming(E, C, SelectionConfig(budget=m // 2, tau=TAU)))
            files = [Path(tmp) / name for name in ("e.bin", "c.txt", "l.txt", "r.json")]
            dataspec.write_matrix_binary(files[0], E.data)
            dataspec.write_vector_text(files[1], C.values)
            dataspec.write_vector_text(files[2], labels.values)
            for name, budget, balanced in (("cli s=100", 100, False),
                                           ("cli s=100 balanced", 100, True),
                                           ("cli", m // 20, False), ("cli balanced", m // 20, True),
                                           ("cli m/2", m // 2, False)):
                argv = ["select", "--embeddings", str(files[0]), "--confidences", str(files[1]),
                        "--budget", str(budget), "--tau", repr(TAU), "--out", str(files[3])]
                if balanced:
                    argv += ["--balanced", "--labels", str(files[2])]
                r = run_cli(argv)
                cases[f"{key} {name}"] = _digest(repr([r[k] for k in PICKED]).encode())
                cases[f"{key} {name} graph"] = _digest(repr(r["graph"]).encode())
            for rule in ("surrogate", "exact", "lazy"):
                for balanced in (False, True):
                    argv = ["select", "--embeddings", str(files[0]), "--confidences",
                            str(files[1]), "--graph", str(Path(tmp) / "g.bin"), "--rule", rule,
                            "--budget", str(m // 10), "--out", str(files[3])]
                    if balanced:
                        argv += ["--balanced", "--labels", str(files[2])]
                    r = run_cli(argv)
                    cases[f"{key} cli cache {rule}{' balanced' if balanced else ''}"] = _digest(
                        repr([r[k] for k in (*PICKED, "graph")]).encode())
    return out


def run_tree(tree: Path) -> dict[str, str]:
    """The case digests of one tree, from a fresh process."""
    src = tree / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(Path(__file__).resolve()), _CHILD],
                         cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"{tree}: the digest run failed:\n{run.stderr}")
    out = json.loads(run.stdout)
    if not Path(out["relpick"]).resolve().is_relative_to(src.resolve()):
        sys.exit(f"{tree}: imported relpick from {out['relpick']}, not from {src}")
    return out["cases"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [_CHILD]:
        json.dump(digests(), sys.stdout)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs=2, type=Path, help="two source trees, the parent first")
    args = p.parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    for t in trees:
        if not (t / "src" / "relpick").is_dir():
            p.error(f"{t}: no src/relpick")
    parent, change = (run_tree(t) for t in trees)
    differ = 0
    for case in sorted(parent.keys() | change.keys()):
        a, b = parent.get(case, "-"), change.get(case, "-")
        differ += a != b
        print(f"{case:40s}  {a:16s}  {b:16s}  {'same' if a == b else 'DIFF'}")
    print(f"{differ} of {len(parent.keys() | change.keys())} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
