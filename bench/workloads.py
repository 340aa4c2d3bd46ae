"""Seeded workloads: the argv of every command one pass runs, and the check
each command's output must pass.

A pass is a fixed list of commands built from the seed alone.  Each workload
draws its jobs into fixed slots whose cost the oracle predicts (witness
window, recurrence period, term size, scanned primes), so every seed gives a
pass of about the same work and the same mix of cheap and expensive jobs.
Command arguments may name "{tmp}", a directory that is empty at the start
of every pass (certificates, the sequence cache, terms files).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle

P_MAX = 20_000  # refute --p-max
MAX_DRAWS = 20_000  # the curve pool is finite, so a slot may admit no draw
MAX_STR_DIGITS = 4300  # CPython's default int-to-str limit, left as it is


@dataclass
class Command:
    argv: list[str]
    # (exit code, stdout, tmp dir) -> None when the output is right, else
    # ("exit" | "wrong", reason); "exit" is a command that gave no answer,
    # "wrong" an answer that is not right
    check: Callable[[int | None, str, str], tuple[str, str] | None]


@dataclass
class Workload:
    commands: list[Command]
    work: dict[str, int]  # exact work counts of one pass, from the oracle
    reset: Callable[[], None] = lambda: None
    files: dict[str, str] = field(default_factory=dict)  # written to {tmp} each pass


def _curve_args(a, b, x, y):
    return ["--curve", str(a), str(b), "--point", str(x), str(y), "1"]


def _lrs_args(coeffs, initial):
    return ["--lrs", str(len(coeffs)), *map(str, coeffs), *map(str, initial)]


def _digits(n: int) -> int:
    return int(abs(n).bit_length() * 0.30103) + 1


def _parse_spec(text: str):
    parts = text.split()
    k = int(parts[1])
    nums = [int(v) for v in parts[2:]]
    return tuple(nums[:k]), tuple(nums[k:])


# ---------------------------------------------------------------------------
# certify: refute, then verify the certificate


# (band name, jobs per pass, jobs in the tiny pass, window bounds, largest p);
# the pool gives a finite set of windows: 3 (curve, q) pairs in the medium
# band and 3 in the large one.  The slowest medium job sets the tail
# latency and the large job the peak memory (its stream holds an int object
# per term whose residue is above 256), so p is bounded as well as the window
CERTIFY_SLOTS = (
    ("short", 10, 1, 0, 5_000, 1000),
    ("small", 2, 1, 15_000, 60_000, 1000),
    ("medium", 4, 0, 220_000, 250_000, 400),
    ("large", 1, 0, 960_000, 1_040_000, 1000),
)
# digits of z_60: the finder builds the exact 60-term prefix, whose cost
# sets the latency of the short and small jobs (windows up to 60,000); the
# median command of a pass is a short refute
CERTIFY_DIGITS_60 = (800, 1200)
SHORT_DIGITS_60 = (900, 1100)
SHORT_WINDOW = 60_000


def _draw_lrs2(rng):
    """Order 2, c2 = +-1, non-degenerate: c1^2 / (-c2) not in {0..4}."""
    c2 = rng.choice((-1, 1))
    c1 = rng.choice([c for c in range(-6, 7) if c and -c * c * c2 not in range(5)])
    u = (rng.randint(-9, 9), rng.randint(-9, 9))
    return (c1, c2), (u if any(u) else (1, u[1]))


def certify(rng: random.Random, tiny: bool) -> Workload:
    digits = {pt: _digits(oracle.eds_terms(*pt, 60)[-1]) for pt in oracle.curve_pool()}
    pool = [pt for pt, d in digits.items() if CERTIFY_DIGITS_60[0] <= d <= CERTIFY_DIGITS_60[1]]
    need = {name: (tiny_n if tiny else n) for name, n, tiny_n, *_ in CERTIFY_SLOTS}
    p_stop = max(s[5] for s in CERTIFY_SLOTS if need[s[0]])
    jobs = []
    for _ in range(MAX_DRAWS):
        if not any(need.values()):
            break
        a, b, x, y = rng.choice(pool)
        coeffs, initial = _draw_lrs2(rng)
        q = rng.choice([q for q in (5, 7, 11, 13) if (4 * a**3 + 27 * b**2) % q])
        hit = oracle.predict_witness(a, b, x, y, coeffs, initial, q, p_stop)
        if hit is None:
            continue
        p, _, horizon, _ = hit
        narrow = SHORT_DIGITS_60[0] <= digits[a, b, x, y] <= SHORT_DIGITS_60[1]
        for name, _, _, lo, hi, p_hi in CERTIFY_SLOTS:
            if need[name] and lo <= horizon <= hi and p <= p_hi and (narrow or hi > SHORT_WINDOW):
                need[name] -= 1
                jobs.append(((a, b, x, y), coeffs, initial, q, hit))
                break
    else:
        raise RuntimeError(f"no draw fits the certify slots {need} after {MAX_DRAWS} tries")
    # by window size, so that every seed allocates and frees memory alike
    jobs.sort(key=lambda job: job[4][2])

    commands = []
    for i, (pt, coeffs, initial, q, (p, order, horizon, _)) in enumerate(jobs):
        cert = f"{{tmp}}/cert{i}.json"
        argv = ["refute", *_curve_args(*pt), *_lrs_args(coeffs, initial), "--q", str(q)]
        argv += ["--p-max", str(P_MAX), "--out", cert]
        commands.append(Command(argv, _check_refute(cert, p, order, horizon)))
        commands.append(Command(["verify", cert], _check_verify))
    work = {
        "jobs": len(jobs),
        "witness_p_sum": sum(j[4][0] for j in jobs),
        "horizon_sum": sum(j[4][2] for j in jobs),
        "scan_p_sum": sum(j[4][3] for j in jobs),
    }
    return Workload(commands, work)


def _check_refute(cert_path, p, order, horizon):
    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}; the oracle predicts witness p={p}")
        with open(cert_path.format(tmp=tmp)) as fh:
            text = fh.read()
        payload = json.loads(text)
        if json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" != text:
            return ("wrong", "certificate JSON is not canonical on round trip")
        got = (int(payload["p"]), int(payload["point_order"]), int(payload["tz_window"][1]))
        if got != (p, order, horizon):
            return ("wrong", f"(p, order, window) {got}, oracle {(p, order, horizon)}")
        return None

    return check


def _check_verify(rc, out, tmp):
    if rc != 0:
        return ("exit", f"verify exit code {rc}")
    if "FAIL" in out:
        return ("wrong", "a check failed")
    return None


# ---------------------------------------------------------------------------
# scan: empirical prime-scan densities


SCAN_QS = (5, 7, 11, 13)
SCAN_JOBS, SCAN_TINY_JOBS = 16, 2
# sum of p over the primes whose points are counted, per job: x is the
# least bound reaching it (about 10^4 at q = 5, 1.8 * 10^4 at q = 13)
SCAN_WORK, SCAN_TINY_WORK = 1_400_000, 100_000


def scan(rng: random.Random, tiny: bool) -> Workload:
    pool = oracle.curve_pool()
    primes = oracle.primes_upto(4 * P_MAX)
    target = SCAN_TINY_WORK if tiny else SCAN_WORK
    commands, work = [], {"jobs": 0, "count_p_sum": 0, "primes_scanned": 0}
    first_hits: dict[int, int] = {}  # hits must repeat exactly on every pass
    for i in range(SCAN_TINY_JOBS if tiny else SCAN_JOBS):
        q = SCAN_QS[i % len(SCAN_QS)]
        a_c, b_c, x, y = rng.choice(pool)
        disc = 4 * a_c**3 + 27 * b_c**2
        a = rng.choice([v for v in range(2, q + 2) if (v - 1) % q])
        b = (a - 1) % q
        total = scanned = 0
        for p in primes:
            if p == 2 or p == q or disc % p == 0:
                continue
            scanned += 1
            if p % q == b:
                total += p
                if total >= target:
                    break
        argv = ["density", "empirical", *_curve_args(a_c, b_c, x, y), "--q", str(q), "--a", str(a)]
        argv += ["--x", str(p), "--format", "json"]
        commands.append(Command(argv, _check_scan(first_hits, i, scanned, p)))
        work["jobs"] += 1
        work["count_p_sum"] += total
        work["primes_scanned"] += scanned
    return Workload(commands, work)


def _check_scan(first_hits, job, scanned, x):
    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}")
        emp = json.loads(out)["empirical"]
        if (emp["x"], emp["scanned"]) != (x, scanned):
            return ("wrong", f"x, scanned = {emp['x']}, {emp['scanned']}; oracle {x}, {scanned}")
        if first_hits.setdefault(job, emp["hits"]) != emp["hits"]:
            return ("wrong", f"hits {emp['hits']} differ from the first pass ({first_hits[job]})")
        return None

    return check


# ---------------------------------------------------------------------------
# sequences: short interactive commands over exact sequences


# eds gen slots: (cost lo, cost hi, fails), the cost of a cold write to n0
# estimated as the sum of digits(z_m)^2 over m <= n0 (an exact point
# addition at d digits costs about d^2).  The last slot is past the
# int-to-str limit, so its cold write and its larger re-read exit 2.
EDS_SLOTS = ((3.6e6, 4.0e6, False), (3.5e7, 3.9e7, False), (1.53e8, 1.63e8, False), (3.3e8, 3.65e8, True))
EDS_LARGER = 5  # the warm re-read past the cold n; the smaller one is 10-20 below
# (order, degenerate): the reduction runs at orders 3 and 4; a degenerate
# order-6 reduction alone took 2.2 s
DEGENERATE_ORDERS = ((3, True), (4, True), (5, False), (6, False))
# (jobs per pass, jobs in the tiny pass, order, period bounds, bound on the
# estimated bytes of the exact terms square_sampled_period holds)
PERIOD_SLOTS = (
    (3, 1, 2, 1, 300, None),
    (2, 0, 3, 1000, 5000, None),
    (1, 0, 2, 15_000, 59_000, (36.5e6, 38.5e6)),
)
PERIOD_PRIME_MAX = {2: 244, 3: 39}  # p^order <= 6 * 10^4
EVAL_JOBS = 16  # with the other short commands, more than half of a pass


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _spec_from_poly(poly, rng):
    """Recurrence with monic characteristic polynomial `poly` (ascending)."""
    k = len(poly) - 1
    initial = [rng.randint(-5, 5) for _ in range(k)]
    initial[0] = initial[0] or 1
    return tuple(-poly[k - i] for i in range(1, k + 1)), tuple(initial)


def _draw_degenerate(rng, k, degenerate):
    if degenerate:
        # (x^2 +- s) h(x): the roots +-sqrt(-+s) have ratio -1
        while True:
            h = [rng.randint(-3, 3) for _ in range(k - 2)] + [1]
            if h[0]:
                break
        return _spec_from_poly(_poly_mul([rng.choice((-1, 1)) * rng.choice((1, 2, 3, 5)), 0, 1], h), rng)
    # distinct integer roots of distinct absolute value: no ratio has modulus 1;
    # the absolute values are fixed per order, so the cost varies little
    poly = [1]
    for r in range(2, k + 2):
        poly = _poly_mul(poly, [rng.choice((-1, 1)) * r, 1])
    return _spec_from_poly(poly, rng)


def _draw_small_lrs(rng, k):
    coeffs = [rng.randint(-3, 3) for _ in range(k)]
    coeffs[-1] = coeffs[-1] or rng.choice((-1, 1))
    initial = [rng.randint(-5, 5) for _ in range(k)]
    initial[0] = initial[0] or 1
    return tuple(coeffs), tuple(initial)


def _growth_bits(coeffs) -> float:
    """log2 of the largest root modulus, by iterating the recurrence."""
    u = [0] * (len(coeffs) - 1) + [1]
    for _ in range(400):
        u.append(sum(c * u[-i] for i, c in enumerate(coeffs, start=1)))
    return max(abs(u[-1]).bit_length() - abs(u[-201]).bit_length(), 0) / 200


def sequences(rng: random.Random, tiny: bool) -> Workload:
    pool = oracle.curve_pool()
    commands: list[Command] = []
    files: dict[str, str] = {}
    work = {"eds_terms": 0, "eds_cold_digits": 0, "lambda_sum": 0, "degenerate_order_sum": 0}
    reference: dict[tuple, list[tuple[str, str, str]]] = {}  # eds gen rows per curve, per pass

    used = set()
    for cost_lo, cost_hi, fails in EDS_SLOTS[:1] if tiny else EDS_SLOTS:
        for _ in range(MAX_DRAWS):
            pt = rng.choice(pool)
            if pt in used:
                continue
            w = [abs(v) for v in oracle.eds_terms(*pt, 110)]
            digits = [_digits(v) for v in w]
            cost = [0, *itertools.accumulate(d * d for d in digits)]
            fits = [
                n
                for n in range(40, 104)
                if cost_lo <= cost[n] <= cost_hi
                and (digits[n - 1] > MAX_STR_DIGITS) == fails
                and (digits[n + EDS_LARGER - 1] > MAX_STR_DIGITS) == fails
                and digits[n - 11] <= MAX_STR_DIGITS
            ]
            if fits:
                break
        else:
            raise RuntimeError(f"no curve fits the eds gen slot {cost_lo:g}-{cost_hi:g}")
        used.add(pt)
        n0 = rng.choice(fits)
        work["eds_cold_digits"] += digits[n0 - 1]
        for n in (n0, n0 - rng.randint(10, 20), n0 + EDS_LARGER):
            argv = ["eds", "gen", *_curve_args(*pt), "--n", str(n), "--cache-dir", "{tmp}/cache"]
            commands.append(Command(argv, _check_eds(reference, pt, w, n)))
            work["eds_terms"] += n

    for k, degenerate in DEGENERATE_ORDERS[:1] if tiny else DEGENERATE_ORDERS:
        coeffs, initial = _draw_degenerate(rng, k, degenerate)
        argv = ["lrs", "degenerate", *_lrs_args(coeffs, initial), "--reduce", "--format", "json"]
        commands.append(Command(argv, _check_degenerate(coeffs, initial, degenerate)))
        work["degenerate_order_sum"] += k

    for i in range(1 if tiny else 4):
        k = 2 + i % 3
        while True:
            coeffs, initial = _draw_small_lrs(rng, k)
            m = rng.randint(2, 5)
            if any(oracle.lrs_terms(coeffs, initial, m * (2 * k + 8))[m - 1 :: m]):
                break
        argv = ["lrs", "decimate", *_lrs_args(coeffs, initial), "--m", str(m)]
        commands.append(Command(argv, _check_decimate(coeffs, initial, m)))

    for i in range(1 if tiny else 4):
        k = 1 + i
        coeffs, initial = _draw_small_lrs(rng, k)
        terms = oracle.lrs_terms(coeffs, initial, 2 * k + 6)
        files[f"terms{i}.txt"] = "".join(f"{t}\n" for t in terms)
        argv = ["lrs", "fit", "--terms-file", f"{{tmp}}/terms{i}.txt"]
        commands.append(Command(argv, _check_fit(terms, k)))

    periods = []
    for jobs, tiny_jobs, k, lo, hi, mem in PERIOD_SLOTS:
        primes = [p for p in oracle.primes_upto(PERIOD_PRIME_MAX[k]) if p > 2 and p**k > lo]
        for _ in range(tiny_jobs if tiny else jobs):
            while True:
                coeffs = tuple(rng.choice([c for c in range(-6, 7) if c]) for _ in range(k))
                initial = tuple(rng.randint(-9, 9) for _ in range(k))
                p = rng.choice(primes)
                if coeffs[-1] % p == 0 or not any(u % p for u in initial):
                    continue
                lam = oracle.lrs_period(coeffs, initial, p)
                if lo <= lam <= hi and (mem is None or mem[0] <= lam * lam * _growth_bits(coeffs) / 16 <= mem[1]):
                    break
            table = oracle.lrs_terms(coeffs, initial, lam, p)
            periods.append((coeffs, initial, p, table))
            argv = ["lrs", "period", *_lrs_args(coeffs, initial), "--p", str(p), "--squares", "--format", "json"]
            commands.append(Command(argv, _check_period(table, True)))
            if hi <= 300:
                argv = ["lrs", "period", *_lrs_args(coeffs, initial), "--p", str(p), "--method", "iteration"]
                commands.append(Command(argv + ["--format", "json"], _check_period(table, False)))
            work["lambda_sum"] += lam

    for i in range(1 if tiny else EVAL_JOBS):
        coeffs, initial, p, table = periods[i % len(periods)]
        n = rng.randint(10**6, 10**12)
        argv = ["lrs", "eval", *_lrs_args(coeffs, initial), "--n", str(n), "--mod", str(p)]
        commands.append(Command(argv, _check_eval(table[(n - 1) % len(table)])))

    # eds gen stays first, cold before warm; the short commands are mixed
    rest = commands[3 * len(used) :]
    rng.shuffle(rest)
    commands[3 * len(used) :] = rest
    return Workload(commands, work, reset=reference.clear, files=files)


def _check_eds(reference, pt, w, n):
    """Rows must be 1..n with z_i = |W_i|, and equal, row for row, to every
    earlier eds gen output for the same curve in this pass (cold vs warm)."""

    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}")
        rows = [tuple(line.split()) for line in out.splitlines()[1:]]
        if [int(r[0]) for r in rows] != list(range(1, n + 1)):
            return ("wrong", "row indices are not 1..n")
        bad = next((i for i, r in enumerate(rows) if int(r[1]) != w[i]), None)
        if bad is not None:
            return ("wrong", f"z_{bad + 1} differs from the exact term")
        ref = reference.setdefault(pt, rows)
        if rows[: len(ref)] != ref[: len(rows)]:
            return ("wrong", "output differs from the earlier output for the same curve")
        if len(rows) > len(ref):
            reference[pt] = rows
        return None

    return check


def _decimated(coeffs, initial, m, count):
    return oracle.lrs_terms(coeffs, initial, m * count)[m - 1 :: m]


def _check_degenerate(coeffs, initial, degenerate):
    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}")
        payload = json.loads(out)
        if payload["degenerate"] != degenerate:
            return ("wrong", f"degenerate = {payload['degenerate']}, constructed {degenerate}")
        if degenerate:
            m = payload["reduction_m"]
            r_coeffs, r_initial = _parse_spec(payload["reduced"])
            count = 2 * len(r_coeffs) + 8
            if oracle.lrs_terms(r_coeffs, r_initial, count) != _decimated(coeffs, initial, m * m, count):
                return ("wrong", f"the reduction does not give u_(m^2 n) for m = {m}")
        return None

    return check


def _check_decimate(coeffs, initial, m):
    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}")
        d_coeffs, d_initial = _parse_spec(out)
        count = 2 * len(coeffs) + 8
        if len(d_coeffs) > len(coeffs) or oracle.lrs_terms(d_coeffs, d_initial, count) != _decimated(
            coeffs, initial, m, count
        ):
            return ("wrong", "the decimated spec does not give u_(m n)")
        return None

    return check


def _check_fit(terms, k):
    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}")
        f_coeffs, f_initial = _parse_spec(out)
        if len(f_coeffs) > k or oracle.lrs_terms(f_coeffs, f_initial, len(terms)) != terms:
            return ("wrong", "the fitted spec does not reproduce the terms")
        return None

    return check


def _check_period(table, squares):
    """The period must be the oracle's; the square-sampled period T must
    divide it and satisfy u_((n+T)^2) = u_(n^2) (mod p) over a full cycle."""
    lam = len(table)

    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}")
        payload = json.loads(out)
        if payload["period"] != lam:
            return ("wrong", f"period {payload['period']}, oracle {lam}")
        if squares:
            t = payload["square_sampled_period"]
            if lam % t or any(
                table[((n + t) ** 2 - 1) % lam] != table[(n * n - 1) % lam] for n in range(1, lam + 1)
            ):
                return ("wrong", f"{t} is not a period of u_(n^2)")
        return None

    return check


def _check_eval(expected):
    def check(rc, out, tmp):
        if rc != 0:
            return ("exit", f"exit code {rc}")
        if out.strip() != str(expected):
            return ("wrong", f"u_n mod p = {out.strip()}, oracle {expected}")
        return None

    return check


BUILDERS = {"certify": certify, "scan": scan, "sequences": sequences}
