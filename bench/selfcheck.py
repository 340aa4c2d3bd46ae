"""Tiny-size check of the benchmark itself; finishes in seconds.

    python3 bench/selfcheck.py

Runs every workload with one tiny pass, untraced and traced, and checks the
result line against BENCHMARK.json; checks that a seed always draws the same
commands; and checks that run.py fails, without a result line, in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"} or units != expected[trace]:
                problems.append(f"{where}: result line does not match BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")

        argvs = [[c.argv for c in workloads.BUILDERS[workload](random.Random(3), True).commands] for _ in range(2)]
        if argvs[0] != argvs[1]:
            problems.append(f"{workload}: the same seed drew different commands")

    bare = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("run.py succeeded without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if bare.parent.exists() and not any(bare.parent.iterdir()):
            bare.parent.rmdir()

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
