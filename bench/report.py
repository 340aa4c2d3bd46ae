"""Run every workload once and print its metrics as a table.

    python3 bench/report.py --seed 1 --seconds 30 [--trace 1]

Each workload runs in its own interpreter through run.py, as the benchmark
is meant to be run; the fail ratio and the failed commands come from the
run's info line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        info_line, result_line = done.stdout.strip().splitlines()[-2:]
        results[name] = (json.loads(info_line)["info"], json.loads(result_line))

    metrics = list(next(iter(results.values()))[1]["metrics"])
    print(f"{'metric':42}" + "".join(f"{name:>16}" for name in names))
    for metric in metrics:
        unit = results[names[0]][1]["metrics"][metric]["unit"]
        cells = "".join(f"{results[n][1]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric + ' (' + unit + ')':42}{cells}")
    for name in names:
        info, result = results[name]
        print(
            f"{name}: correct={result['correct']} fail_ratio={info['fail_ratio']:.4f} "
            f"({result['failed']}/{result['attempted']}), tail = p{info['tail_percentile']:.1f} "
            f"of {info['latency_samples']} samples, passes={info['passes']}, work/pass={info['work_per_pass']}"
        )
        for failure in {f["argv"]: f for f in info["failures"]}.values():
            print(f"  failed: {failure['argv']}  [{failure['kind']}: {failure['reason']}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
