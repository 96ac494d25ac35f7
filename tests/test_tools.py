import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PICK_DIGESTS = ROOT / "tools" / "pick_digests.py"


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
        assert lines[-1] == "0 of 36 cases differ"
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
        assert lines[-1] == "33 of 36 cases differ"
        assert all(line.endswith("  DIFF") != (" graph " in line) for line in lines[:-1])
