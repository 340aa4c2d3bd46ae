"""Independent arithmetic the benchmark uses to draw inputs and check outputs.

Nothing here imports edslab: every expected value the benchmark compares
against is derived from this file, so a defect in the program cannot hide
behind the same defect in its checker.  It is also used to predict the cost
of a drawn job (witness prime, period window, recurrence period), so that
each pass of a workload holds the same mix of cheap and expensive jobs
whatever the seed.
"""

from __future__ import annotations

import math
from functools import lru_cache

# find_witness defaults the refute command keeps (a_target, horizon cap,
# mismatch prefix and minimum); the oracle predicts the witness under them
A_TARGET = 3
HORIZON_CAP = 6_000_000
MISMATCH_PREFIX = 60
MIN_MISMATCHES = 10


@lru_cache(maxsize=4)
def primes_upto(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def factor(n: int) -> list[int]:
    """Distinct prime factors by trial division (n is at most a few 10^4)."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# curves


def in_model(a: int, x: int, y: int) -> bool:
    """gcd(2y, 3x^2 + a) = 1: the integral point is non-singular mod every
    prime, which is the model in which |W_n| = z_n (see the README)."""
    return math.gcd(2 * y, 3 * x * x + a) == 1


def is_torsion(a: int, b: int, x: int, y: int) -> bool:
    """Nagell-Lutz: a torsion point has integral multiples; rational torsion
    orders are at most 12, so a non-integral multiple below 13 settles it."""
    from fractions import Fraction

    px, py = Fraction(x), Fraction(y)
    cx, cy = px, py
    for _ in range(2, 13):
        if cx == px:
            if cy == -py:
                return True
            lam = (3 * cx * cx + a) / (2 * cy)
        else:
            lam = (py - cy) / (px - cx)
        nx = lam * lam - cx - px
        cy = lam * (cx - nx) - cy
        cx = nx
        if cx.denominator != 1 or cy.denominator != 1:
            return False
    return True


def curve_pool(bound: int = 12, x_range: range = range(-30, 400)) -> list[tuple[int, int, int, int]]:
    """(a, b, x, y): for each non-singular curve with |a|, |b| <= bound, its
    first non-torsion integral point with x != 0 and y > 0, kept when it
    lies in the model."""
    pool = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            for x in x_range:
                rhs = x**3 + a * x + b
                if x == 0 or rhs <= 0 or math.isqrt(rhs) ** 2 != rhs:
                    continue
                y = math.isqrt(rhs)
                if not is_torsion(a, b, x, y):
                    if in_model(a, x, y):
                        pool.append((a, b, x, y))
                    break
    return pool


def division_seeds(a: int, b: int, x: int, y: int) -> tuple[int, int, int, int]:
    """W_1..W_4 of the division-polynomial sequence at an integral point."""
    w3 = 3 * x**4 + 6 * a * x * x + 12 * b * x - a * a
    w4 = 4 * y * (x**6 + 5 * a * x**4 + 20 * b * x**3 - 5 * a * a * x * x - 4 * a * b * x - 8 * b * b - a**3)
    return (1, 2 * y, w3, w4)


def eds_terms(a: int, b: int, x: int, y: int, n: int, p: int | None = None) -> list[int]:
    """W_1..W_n exactly (p None) or modulo p, by Ward's bilinear recurrences.

    For an integral point in the model |W_n| = z_n, the denominator the
    program reports."""
    w = [0, *division_seeds(a, b, x, y)]
    inv_even = 2 * y
    if p is not None:
        w = [v % p for v in w]
        inv_even = pow(2 * y, -1, p)
    for m in range(5, n + 1):
        k = m // 2
        if m % 2:
            v = w[k + 2] * w[k] ** 3 - w[k + 1] ** 3 * w[k - 1]
        else:
            v = w[k + 2] * w[k] * w[k - 1] ** 2 - w[k] * w[k - 2] * w[k + 1] ** 2
            v = v * inv_even if p is not None else v // inv_even
        w.append(v % p if p is not None else v)
    return w[1 : n + 1]


def count_points(a: int, b: int, p: int) -> int:
    """#E(F_p) by the character sum over all x."""
    chi = [-1] * p
    chi[0] = 0
    for i in range(1, (p + 1) // 2):
        chi[i * i % p] = 1
    return p + 1 + sum(chi[(x * x * x + a * x + b) % p] for x in range(p))


def _ec_mul(n: int, pt, a: int, p: int):
    def add(u, v):
        if u is None:
            return v
        if v is None:
            return u
        if u[0] == v[0]:
            if (u[1] + v[1]) % p == 0:
                return None
            lam = (3 * u[0] * u[0] + a) * pow(2 * u[1], -1, p) % p
        else:
            lam = (v[1] - u[1]) * pow(v[0] - u[0], -1, p) % p
        x3 = (lam * lam - u[0] - v[0]) % p
        return (x3, (lam * (u[0] - x3) - u[1]) % p)

    result = None
    while n:
        if n & 1:
            result = add(result, pt)
        pt = add(pt, pt)
        n >>= 1
    return result


def point_order(a: int, x: int, y: int, p: int, n_points: int) -> int:
    pt = (x % p, y % p)
    order = n_points
    for ell in factor(n_points):
        while order % ell == 0 and _ec_mul(order // ell, pt, a, p) is None:
            order //= ell
    return order


# ---------------------------------------------------------------------------
# linear recurrences


def lrs_terms(coeffs: tuple[int, ...], initial: tuple[int, ...], n: int, p: int | None = None) -> list[int]:
    terms = list(initial[:n])
    while len(terms) < n:
        v = sum(c * terms[-i] for i, c in enumerate(coeffs, start=1))
        terms.append(v % p if p is not None else v)
    return [t % p for t in terms] if p is not None else terms


def lrs_period(coeffs: tuple[int, ...], initial: tuple[int, ...], p: int) -> int:
    """Least lambda with u_{n+lambda} = u_n (mod p), by walking states; the
    last coefficient is a unit mod p, so the walk returns to its start."""
    if len(coeffs) == 2:
        c1, c2 = coeffs[0] % p, coeffs[1] % p
        start = (initial[0] % p, initial[1] % p)
        u0, u1 = start
        steps = 0
        while True:
            u0, u1 = u1, (c1 * u1 + c2 * u0) % p
            steps += 1
            if (u0, u1) == start:
                return steps
    cs = [c % p for c in coeffs]
    start = [u % p for u in initial]
    window = start[:]
    steps = 0
    while True:
        window.append(sum(c * window[-i] for i, c in enumerate(cs, start=1)) % p)
        del window[0]
        steps += 1
        if window == start:
            return steps


# ---------------------------------------------------------------------------
# the witness the finder must return


def predict_witness(a, b, x, y, coeffs, initial, q, p_stop):
    """(p, order, horizon, scan_work) of the first prime that passes every
    find_witness condition, or None when the first prime passing the order
    condition is above p_stop, needs a window above the cap, or has too few
    mismatches; only jobs whose first candidate is the witness are drawn, so
    the prediction does not depend on how skipped candidates are handled.
    scan_work is the sum of p over the primes whose points were counted."""
    disc = 4 * a**3 + 27 * b**2
    b_target = (A_TARGET - 1) % q
    work = 0
    for p in primes_upto(p_stop):
        if p == 2 or p == q or (disc * coeffs[-1] * 2 * y) % p == 0 or p % q != b_target:
            continue
        n_points = count_points(a, b, p)
        work += p
        if (p + 1 - n_points) % q != A_TARGET % q:
            continue
        order = point_order(a, x, y, p, n_points)
        if order % q:
            continue
        horizon = 2 * order * (p - 1) + 2 * order + 16
        if horizon > HORIZON_CAP:
            return None
        z = eds_terms(a, b, x, y, MISMATCH_PREFIX, p)
        u = lrs_terms(coeffs, initial, MISMATCH_PREFIX**2, p)
        mismatches = sum(
            1 for n in range(1, MISMATCH_PREFIX + 1) if (z[n - 1] - u[n * n - 1]) % p and (z[n - 1] + u[n * n - 1]) % p
        )
        return (p, order, horizon, work) if mismatches >= MIN_MISMATCHES else None
    return None
