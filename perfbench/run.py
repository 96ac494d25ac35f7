"""relpick benchmark: three workloads over `relpick select` and the library.

    python3 perfbench/run.py --workload cold_select --seed 0 --seconds 20 --trace 0

Run from the repository root. It generates the workload's instance from
`oracle.random_instance(seed, ...)`, runs the workload's operations, each
in its own child process, in passes until `--seconds` have elapsed, checks
every output, and prints the metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports
the end-to-end metrics; `--trace 1` runs the traced pass instead and
reports the per-layer metrics. `--smoke` shrinks every instance to
m = 2000 for the benchmark's own tests. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cold_select", "cached_sweep", "graph_free")
# set-up on cached_sweep includes a ~15 s graph build, so it runs once there
SETUP_REPEATS = {"cold_select": 9, "cached_sweep": 1, "graph_free": 9}
MIN_PASSES = 2
RUN_LIMIT_S = 170  # a run must end within 180 s, even if the program hangs
E2E_UNITS = {"setup_s": "s", "run_s": "s", "select_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help=f"measure passes until this much time has elapsed "
                        f"(at least {MIN_PASSES} passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="m = 2000 instances, for tests")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas"),
        "openblas_threads": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _openblas_threads(np) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(workload: str, args, ops, files, env, records) -> dict:
    """Set up several times, then time passes for `args.seconds`; return
    {metric: (value, samples)}."""
    inst = ops.WORKLOADS[workload]
    m = ops.SMOKE_M if args.smoke else inst.m
    setups = []
    for _ in range(SETUP_REPEATS[workload]):
        t0 = time.perf_counter()
        data = ops.generate(inst, m, args.seed, files)
        if workload == "cached_sweep":
            _, _, code = ops.run_child(ops.graph_argv(files, inst.tau), env, files.log)
            if code != 0:
                raise RuntimeError(f"`relpick graph` set-up exited {code}; see {files.log}")
        setups.append(time.perf_counter() - t0)

    plan = ops.plan(workload, files, data)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        records += [ops.run_op(op, str(len(passes)), env) for op in plan]
        passes.append(time.perf_counter() - t0)

    graph = None
    if workload == "cached_sweep":
        graph = ops.simgraph.load_graph(files.graph)
    ops.verify(records, ops.Checker(data, graph))

    head = "streaming" if workload == "graph_free" else "select"
    selects = [r.seconds for r in records if r.op == head]
    failed = sum(r.failed for r in records)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median(passes), len(passes)),
        "select_s": (statistics.median(selects), len(selects)),
        "peak_rss_mb": (max(r.rss_mb for r in records), len(records)),
        "ok_frac": (1.0 - failed / len(records), len(records)),
    }


def _stop(signum, frame):
    # raised in the main thread, so run_child kills and reaps its child
    raise SystemExit(f"perfbench: stopped by signal {signum}")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGALRM, _stop)
    signal.alarm(RUN_LIMIT_S)
    if not (SRC / "relpick" / "cli.py").is_file():
        print(f"perfbench: relpick sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ops
    import traced

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = ops.Files(work)
    env = ops.child_env()
    records: list = []
    spans = None
    if args.trace:
        inst = ops.WORKLOADS[args.workload]
        m = ops.SMOKE_M if args.smoke else inst.m
        values, tracer = traced.traced_run(args.workload, inst, m, args.seed, files, env, records)
        spans = tracer.spans
        metrics = {k: {"value": v, "unit": traced.PER_LAYER[k][0]} for k, v in values.items()}
        samples = {}
    else:
        measured = measure(args.workload, args, ops, files, env, records)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in measured.items()}
        samples = {k: n for k, (_, n) in measured.items()}

    failed = sum(r.failed for r in records)
    env_record = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": env_record, "metrics": metrics,
        "samples": samples, "ops": [r.summary() for r in records],
    }
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{name}.spans.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(work)

    for r in records:
        status = "ok" if not r.failed else "FAILED: " + "; ".join(r.problems)
        print(f"op {r.op:<9} pass {r.pass_id:<6} {r.seconds:9.4f} s  digest {r.digest}  {status}")
    for k, v in metrics.items():
        n = f"  (n={samples[k]})" if k in samples else ""
        print(f"{k:<32} {v['value']!r} {v['unit']}{n}")
    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    print(f"report: {OUT / f'{name}.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
