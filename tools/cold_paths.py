"""Time the three cold selection paths, and name the one the rule takes.

    python3 tools/cold_paths.py [SHAPE ...] [--budgets 100,256,512,1024,4000]
                                [--seed 0] [--repeat 2]

A SHAPE is a preset name (default: all of them) or M:D:C:SPREAD:TAU.
Its instance is `oracle.random_instance(seed, m=M, d=D, c=C,
cluster_spread=SPREAD, noise_fraction=0.2)`, selected at tau TAU under
the plain surrogate rule. A budget below 1, such as 0.2, is that share
of m, rounded (at least 1), so one list covers the same prune ratios at
every m. For each budget up to m, in this process:

- scan: `pruner._scan`, one similarity scan per pick;
- rows: `pruner.select` on a fresh `simgraph.ball_stage`, whose rows are
  computed as the picks need them, the ball stage included;
- build: `simgraph.build_graph`, then `pruner.select`, the build included;

the scan and the rows are timed as the best of --repeat runs, the build
once. The three orders must agree. Each row also gives the count ratio
that `pruner.rows_pay` compares with `pruner._ROWS_SHARE` (the budget
times `BallStage.row_pairs`, over `BallStage.build_pairs`), the path
`pruner.select_embeddings` takes, and its time against the fastest path.

Prints one row per (shape, budget), with times in ms, then a `total` row:
the summed ms of the scan, rows and build columns and of the rule's path
(in the rule column), and the rule's sum over the sum of each row's
fastest path.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this tree's relpick

PRESETS = {  # name: (m, d, classes, cluster spread, tau)
    "crit8-2048": (2048, 32, 10, 0.1, 0.8),  # criterion 8's scaling bench
    "crit8-16384": (16384, 32, 10, 0.1, 0.8),
    "cold": (40_000, 64, 10, 0.05, 0.9),  # perfbench's cold_select and graph_free
    "wide": (20_000, 64, 10, 0.1, 0.7),
    "classes1000": (40_000, 64, 1000, 0.05, 0.9),
}


def shape(spec: str) -> tuple[str, tuple]:
    if spec in PRESETS:
        return spec, PRESETS[spec]
    try:
        m, d, c, spread, tau = spec.split(":")
        return spec, (int(m), int(d), int(c), float(spread), float(tau))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is neither a preset ({', '.join(PRESETS)}) nor M:D:C:SPREAD:TAU") from None


def budget(tok: str) -> float:
    """A --budgets token: an integer >= 1, or a share of m in (0, 1)."""
    b = float(tok)
    if not (0 < b < 1 or b >= 1 and b.is_integer()):
        raise ValueError(tok)
    return b


def best_of(repeat: int, run) -> tuple[float, list[int]]:
    """The least wall time of ``repeat`` calls of ``run``, in ms, and the
    order the last call picked."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        order = run().order
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, order


def cells(name: str, spec: tuple, budgets: list[float], seed: int, repeat: int):
    """One row per budget up to m, a fraction below 1 taken of m: (shape,
    budget, scan, rows, build ms, count ratio, the rule's path, the rule's
    path over the fastest)."""
    from relpick import SelectionConfig, oracle, pruner, simgraph

    m, d, c, spread, tau = spec
    E, C, _, _ = oracle.random_instance(seed, m=m, d=d, c=c, cluster_spread=spread,
                                        noise_fraction=0.2)
    stage = simgraph.ball_stage(E, tau)
    row_pairs, build_pairs = stage.row_pairs(), stage.build_pairs()
    sizes = [max(1, round(b * m)) if b < 1 else int(b) for b in budgets]
    for s in (s for s in sizes if s <= m):
        cfg = SelectionConfig(budget=s, tau=tau)
        times = {}
        times["scan"], scanned = best_of(repeat, lambda: pruner._scan(E, C, None, cfg))
        times["rows"], rowed = best_of(repeat, lambda: pruner.select(
            simgraph.ball_stage(E, tau), C, None, cfg))
        times["built"], built = best_of(1, lambda: pruner.select(
            simgraph.build_graph(E, tau), C, None, cfg))
        if not scanned == rowed == built:
            raise SystemExit(f"{name} s={s}: the paths picked different orders")
        rule = pruner.select_embeddings(E, C, None, cfg).graph["source"]
        yield (name, s, times["scan"], times["rows"], times["built"], s * row_pairs / build_pairs,
               rule, times[rule] / min(times.values()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("shapes", nargs="*", type=shape, default=[shape(n) for n in PRESETS],
                   help=f"presets ({', '.join(PRESETS)}) or M:D:C:SPREAD:TAU")
    p.add_argument("--budgets", default="100,256,512,1024,4000",
                   help="comma-separated budgets, a token below 1 a share of m; "
                        "those above m are skipped")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=2, help="runs of the scan and the rows")
    args = p.parse_args(argv)
    try:
        budgets = [budget(tok) for tok in args.budgets.split(",")]
    except ValueError:
        p.error(f"--budgets must be comma-separated integers >= 1 or shares of m in (0, 1), "
                f"got {args.budgets!r}")
    if args.repeat < 1:
        p.error("--repeat must be >= 1")
    print(f"{'shape':24s} {'budget':>6s} {'scan':>8s} {'rows':>8s} {'build':>8s} "
          f"{'ratio':>7s}  rule   rule/fastest", flush=True)
    sums = [0.0] * 5  # scan, rows, build, the rule's path, the fastest path
    for name, spec in args.shapes:
        for row in cells(name, spec, budgets, args.seed, args.repeat):
            print("{:24s} {:6d} {:8.1f} {:8.1f} {:8.1f} {:7.3f}  {:6s} {:.2f}".format(*row),
                  flush=True)
            ms = dict(zip(("scan", "rows", "built"), row[2:5]))
            for k, v in enumerate([*ms.values(), ms[row[6]], min(ms.values())]):
                sums[k] += v
    print("{:24s} {:>6s} {:8.1f} {:8.1f} {:8.1f} {:>7s}  {:<6.1f} {:.2f}".format(
        "total", "-", *sums[:3], "-", sums[3], sums[3] / sums[4] if sums[4] else 1.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
