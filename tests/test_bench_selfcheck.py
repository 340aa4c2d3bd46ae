"""The benchmark's own tiny-size check, run as part of the tests: a change to
the command line that breaks the benchmark's output checks fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "bench/selfcheck.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck: ok"
