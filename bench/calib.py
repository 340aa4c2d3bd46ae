"""A fixed slice of pure-Python integer work, timed to track machine speed.

The machine this benchmark was sized on is shared: the same loop of
count_points calls took from 0.32 s to 0.64 s within a few minutes, with
nothing else of ours running, and the speed changes in steps lasting
seconds.  Timing this slice between commands gives the speed of the moment;
times are reported scaled to REFERENCE_S, the slice's time on the idle
sizing machine, so they read as seconds at that speed.
"""

import time

REFERENCE_S = 0.007
ITERATIONS = 40_000


def slice_seconds() -> float:
    table = list(range(1009))
    start = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc = (acc + table[(i * i + acc) % 1009]) % 1_000_003
    return time.perf_counter() - start
