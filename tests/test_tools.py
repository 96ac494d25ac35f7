import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PICK_DIGESTS = ROOT / "tools" / "pick_digests.py"
COLD_PATHS = ROOT / "tools" / "cold_paths.py"


def pick_digests(parent, change):
    return subprocess.run([sys.executable, str(PICK_DIGESTS), str(parent), str(change)],
                          capture_output=True, text=True, timeout=120)


class TestPickDigests:
    def test_one_tree_against_itself_reports_no_difference(self):
        t0 = time.perf_counter()
        run = pick_digests(ROOT, ROOT)
        assert time.perf_counter() - t0 < 30.0
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[-1] == "0 of 57 cases differ"
        assert all(line.endswith("  same") for line in lines[:-1])

    def test_a_gain_one_ulp_off_is_a_difference(self, tmp_path):
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        pruner = tmp_path / "src" / "relpick" / "pruner.py"
        text = pruner.read_text()
        assert text.count("picked.append(g)") == 1, "precondition"
        pruner.write_text(text.replace("picked.append(g)", "picked.append(g * (1 + 2**-52))"))
        run = pick_digests(ROOT, tmp_path)
        assert run.returncode == 1, run.stderr
        lines = run.stdout.splitlines()
        assert lines[-1] == "39 of 57 cases differ"
        assert all(line.endswith("  DIFF") != (" graph " in line) for line in lines[:-1])


class TestColdPaths:
    def test_tiny_shape_names_the_path_the_rule_takes(self):
        t0 = time.perf_counter()
        run = subprocess.run([sys.executable, str(COLD_PATHS), "1500:8:10:0.05:0.9",
                              "--budgets", "10,128,0.1,1000,2000", "--repeat", "1"],
                             capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - t0 < 5.0
        assert run.returncode == 0, run.stderr
        header, *rows, total = run.stdout.splitlines()
        assert header.split() == ["shape", "budget", "scan", "rows", "build", "ratio", "rule",
                                  "rule/fastest"]
        # below the scan's cut, then count ratios below the rows' share and
        # one above it; 0.1 is a tenth of m, and a budget above m is skipped
        assert [(r.split()[1], r.split()[6]) for r in rows] == [
            ("10", "scan"), ("128", "rows"), ("150", "rows"), ("1000", "built")]
        assert all(float(r.split()[7]) >= 1.0 for r in rows)
        # the total row sums the printed cells, each within its rounding
        ms = [dict(zip(("scan", "rows", "built"), map(float, r.split()[2:5]))) for r in rows]
        rule = sum(m[r.split()[6]] for m, r in zip(ms, rows))
        fastest = sum(min(m.values()) for m in ms)
        name, dash, *sums, dash2, rule_ms, ratio = total.split()
        assert (name, dash, dash2) == ("total", "-", "-")
        for got, want in zip(map(float, sums + [rule_ms]),
                             [sum(m[k] for m in ms) for k in ("scan", "rows", "built")] + [rule]):
            assert abs(got - want) <= 0.05 * (len(rows) + 1)
        assert float(ratio) == pytest.approx(rule / fastest, rel=0.02, abs=0.01)
