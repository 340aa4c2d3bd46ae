"""End-to-end benchmark of the edslab command line.

    python3 bench/run.py --workload certify|scan|sequences --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives ``edslab.cli.main(argv)``
in this process, closed loop: each command starts when the previous one has
returned, with ``--jobs`` left at 1.  The seed alone decides every argv (see
workloads.py); every output is checked against oracle.py.  A pass runs the
workload's fixed command list once in a fresh scratch directory, and a run
makes ``S // 7`` passes of about 6-8 s (a single smaller "tiny" pass when S < 7).

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  With ``--trace 0`` the metrics are end to end:

- setup_s      median over fresh interpreters of importing edslab.cli and
               building its parser
- wall_s       median over passes of the time spent inside commands
- job_s_p50    median command latency over every command of the run
- job_s_tail   the latency with exactly ten commands beyond it
- peak_rss_mb  peak resident memory of this process

Times are scaled to a reference machine speed measured between commands
(calib.py): the shared machine this was sized on changes speed by up to 2x
within minutes.  The info line keeps the pass times as measured.

With ``--trace 1`` passes alternate untraced and traced, and the metrics are
the per-layer ones of one traced pass (tracer.py; self times as measured),
plus the tracing overhead (traced wall_s minus untraced wall_s).  The line before the last is a JSON
object "info" with the tail percentile and sample count, the failed
commands, the fail ratio, the exact work counts, the git SHA, the Python
version and the CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PASS_SECONDS = 7
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time; sys.path[:0] = ['src', 'bench']; import calib; c = [calib.slice_seconds() for _ in range(3)]; "
    "t = time.perf_counter(); import edslab.cli; edslab.cli.build_parser(); t = time.perf_counter() - t; "
    "c += [calib.slice_seconds() for _ in range(3)]; print(t, sum(c) / len(c))"
)

# metric names and units come from BENCHMARK.json; per-layer metrics are
# "<layer>.<function>.calls|self_s", a work count from tracer.py, a ratio
# below, or the tracing overhead
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "eds.load_sequence.hit_ratio": ("eds.load_sequence.hits", "eds.load_sequence.calls"),
    "galois_density.hit_ratio": ("galois_density.hits", "galois_density.primes_scanned"),
    "refuter.candidate_yield": ("refuter.certified", "refuter.candidates"),
}


def load_program():
    """edslab.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from edslab import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import edslab from {src}: {exc}")
    if Path(cli.__file__).resolve().parent != (src / "edslab").resolve():
        raise SystemExit(f"bench: edslab was imported from {cli.__file__}, not from {src}")
    return cli


def measure_setup(scratch: Path) -> list[tuple[float, float]]:
    """(import-and-parser time, mean calibration slice) of fresh
    interpreters, after one warm-up run that fills a private bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        times.append(tuple(map(float, done.stdout.split())))
    return times[1:]


def invoke(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
        except Exception:  # the program raised instead of returning an exit code
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(cli, load: workloads.Workload, tmp: Path, trace: tracer.Tracer | None):
    """Run the command list once; returns the latencies as measured, the
    calibration slices (one before each command and one after the last) and
    the failures."""
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for name, text in load.files.items():
        (tmp / name).write_text(text)
    load.reset()
    latencies, failures = [], []
    slices = [calib.slice_seconds()]
    for i, command in enumerate(load.commands):
        argv = [arg.format(tmp=tmp) for arg in command.argv]
        if trace is not None:
            trace.request = i
        start = time.perf_counter()
        rc, out, err = invoke(cli, argv)
        latencies.append(time.perf_counter() - start)
        slices.append(calib.slice_seconds())
        if rc is None:
            verdict = ("exit", "raised " + err.strip().splitlines()[-1])
        else:
            try:
                verdict = command.check(rc, out, str(tmp))
            except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                verdict = ("wrong", f"unreadable output: {exc!r}")
        if verdict is not None:
            failures.append((i, *verdict, " ".join(command.argv)))
    return latencies, slices, failures


def at_reference_speed(latencies: list[float], slices: list[float]) -> list[float]:
    """Each latency scaled to the reference machine speed, taking the speed
    during a command as the mean of the slices just before and after it."""
    return [t * 2 * calib.REFERENCE_S / (slices[i] + slices[i + 1]) for i, t in enumerate(latencies)]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def layer_metrics(trace: tracer.Tracer, traced_passes: int, overhead: float) -> dict:
    counts = dict(trace.counts)
    for name, seconds in trace.self_times().items():
        counts[name + ".self_s"] = seconds
    out = {}
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        if name in RATIOS:
            num, den = (counts.get(key, 0) for key in RATIOS[name])
            value = num / den if den else 0.0
        elif name == "trace.overhead_s":
            value = overhead
        else:
            value = counts.get(name, 0) / traced_passes
            if unit == "count":
                value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still remove the scratch directory
    os.environ.pop("EDSLAB_CACHE", None)  # no cache the seed did not make
    scratch = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(scratch)
        tiny = args.seconds < PASS_SECONDS
        load = workloads.BUILDERS[args.workload](random.Random(args.seed), tiny)
        passes = max(1, args.seconds // PASS_SECONDS)
        schedule = [False, True] * max(1, passes // 2) if args.trace else [False] * passes
        trace = tracer.Tracer() if args.trace else None
        walls = {False: [], True: []}
        raw_walls, speeds = [], []
        latencies, failures = [], []
        for n, traced in enumerate(schedule):
            if traced:
                trace.install()
            try:
                lat, sl, fail = run_pass(cli, load, scratch / "tmp", trace if traced else None)
            finally:
                if traced:
                    trace.uninstall()
            scaled = at_reference_speed(lat, sl)
            walls[traced].append(sum(scaled))
            raw_walls.append(sum(lat))
            speeds.append(calib.REFERENCE_S / statistics.median(sl))
            latencies += scaled
            failures += [(n, *f) for f in fail]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    latencies.sort()
    tail_rank = max(len(latencies) - 11, 0)
    wall = statistics.median(walls[False])
    if args.trace:
        overhead = statistics.median(walls[True]) - wall
        metrics = layer_metrics(trace, len(walls[True]), overhead)
    else:
        values = {
            "setup_s": statistics.median(t * calib.REFERENCE_S / c for t, c in setup),
            "wall_s": wall,
            "job_s_p50": statistics.median(latencies),
            "job_s_tail": latencies[tail_rank],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}
    attempted = len(latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(schedule),
        "commands_per_pass": len(load.commands),
        "tail_percentile": 100 * (tail_rank + 1) / attempted,
        "latency_samples": attempted,
        "fail_ratio": len(failures) / attempted,
        "failures": [
            {"pass": n, "command": i, "kind": kind, "reason": reason, "argv": text}
            for n, i, kind, reason, text in failures
        ],
        "work_per_pass": load.work,
        "program_counts_per_pass": (
            {k: v / len(walls[True]) for k, v in sorted(trace.counts.items())} if args.trace else None
        ),
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "pass_wall_s_as_measured": raw_walls,
        "pass_machine_speed": speeds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print(json.dumps({"info": info}))
    wrong = [f for f in failures if f[2] == "wrong"]
    print(
        json.dumps(
            {"correct": not wrong, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
