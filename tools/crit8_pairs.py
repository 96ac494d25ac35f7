"""Count criterion 8 passes over alternating runs of two source trees.

    python3 tools/crit8_pairs.py PARENT_TREE CHANGE_TREE [--pairs 8]

Each run is `tests/test_acceptance.py::test_criterion_8_scaling_bench`
alone, in a fresh `python -m pytest -p no:cacheprovider` process started
in the tree, with that tree's `src` first on PYTHONPATH. The first tree
runs first in odd pairs, the second in even ones. Every other setting,
BLAS and thread variables included, is inherited as it is.

Prints one line per run (pair, tree, and "pass" or the failing assertion
line), then each tree's pass count.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

TEST = "tests/test_acceptance.py::test_criterion_8_scaling_bench"


def run_once(tree: Path) -> str:
    """One run's outcome: "pass", or the first assertion line pytest printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=short", "-p", "no:cacheprovider", TEST],
        cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return "pass"
    lines = run.stdout.splitlines()
    errors = [line[1:].strip() for line in lines if line.startswith("E ")]
    return "fail: " + (errors[0] if errors else (lines[-1] if lines else f"exit {run.returncode}"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs=2, type=Path, help="two source trees, the parent first")
    p.add_argument("--pairs", type=int, default=8)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    trees = [t.resolve() for t in args.trees]
    for t in trees:
        if not (t / TEST.split("::")[0]).is_file():
            p.error(f"{t}: no {TEST.split('::')[0]}")
    passes = [0, 0]
    for pair in range(1, args.pairs + 1):
        for i in ((0, 1) if pair % 2 else (1, 0)):
            outcome = run_once(trees[i])
            passes[i] += outcome == "pass"
            print(f"pair {pair:2d}  {trees[i]}  {outcome}", flush=True)
    for t, n in zip(trees, passes):
        print(f"{t}: {n} of {args.pairs} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
