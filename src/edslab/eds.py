"""Elliptic divisibility sequences: geometric and bilinear-recurrence generation,
growth, primitive divisors, and periods modulo p.

A geometric sequence stores the positive denominators z_n of nP.  Reductions
modulo p are computed on the canonical signed companion sequence w_n obtained
from the normalized division-polynomial seed values; z_n = z_1*|w_n| exactly
when gcd(2y, 3x^2 + a*z^4) = 1 (see `require_exact_companion`).  At a prime
not dividing z_1 the factor z_1 is a unit, and the sign ambiguity is
irrelevant to every question asked here (zeros, divisibility, periods up to
sign).  Periods of a geometric stream come from Ward's symmetry
(`ward_period`), which needs only w_1..w_{r+2}, r the rank of apparition.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import tempfile
from dataclasses import dataclass

from .elliptic import (
    CurveFp,
    CurveQ,
    PointQ,
    count_points,
    is_torsion,
    point_order_fp,
    reduce_point,
    scalar_mul,
)
from .ntkernel import IncompleteFactorization, factorize, invmod, is_prime, multiplicative_order


class InexactDivisionError(ValueError):
    """A bilinear recurrence step did not divide exactly."""

    def __init__(self, index: int, numerator: int, denominator: int):
        super().__init__(f"inexact division at index {index}: {numerator} / {denominator}")
        self.index = index


@dataclass(frozen=True)
class WardSeed:
    """Four initial integer values w1..w4 with w1*w2*w3 != 0 and w2 | w4."""

    w1: int
    w2: int
    w3: int
    w4: int

    def __post_init__(self):
        if self.w1 * self.w2 * self.w3 == 0:
            raise ValueError("w1, w2, w3 must be non-zero")
        if self.w4 % self.w2 != 0:
            raise ValueError("w2 must divide w4")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.w1, self.w2, self.w3, self.w4)


@dataclass
class EdsSequence:
    """A generated prefix of an elliptic divisibility sequence (1-based)."""

    source: str  # "geometric" | "ward"
    terms: list[int]
    curve: CurveQ | None = None
    point: PointQ | None = None
    seed: WardSeed | None = None
    degenerate_at: int | None = None  # first index with a zero term, if any

    def term(self, n: int) -> int:
        if not 1 <= n <= len(self.terms):
            raise IndexError(f"term {n} not generated (have 1..{len(self.terms)})")
        return self.terms[n - 1]

    def __len__(self) -> int:
        return len(self.terms)


def division_poly_seeds(curve: CurveQ, point: PointQ) -> tuple[int, int, int, int]:
    """Integer seed values of the division-polynomial sequence at the point.

    These are the evaluations of the first four division polynomials at
    (x/z^2, y/z^3), cleared of denominators by the weight z^(n^2-1); they
    start the bilinear recurrences, whose terms satisfy z_n = z_1*|w_n| when
    `require_exact_companion` passes.
    """
    a, b = curve.a, curve.b
    x1, y1, z1 = point.x, point.y, point.z
    if z1 == 0:
        raise ValueError("need an affine point")
    w2 = 2 * y1
    w3 = 3 * x1**4 + 6 * a * x1**2 * z1**4 + 12 * b * x1 * z1**6 - a**2 * z1**8
    w4 = 4 * y1 * (
        x1**6
        + 5 * a * x1**4 * z1**4
        + 20 * b * x1**3 * z1**6
        - 5 * a**2 * x1**2 * z1**8
        - 4 * a * b * x1 * z1**10
        - 8 * b**2 * z1**12
        - a**3 * z1**12
    )
    return (1, w2, w3, w4)


def _companion_gcd(curve: CurveQ, point: PointQ) -> int:
    """gcd(2y, 3x^2 + a*z^4): 1 exactly when z_n = z_1*|w_n| for every n."""
    return math.gcd(2 * point.y, 3 * point.x**2 + curve.a * point.z**4)


def require_exact_companion(curve: CurveQ, point: PointQ) -> None:
    """Raise ValueError unless gcd(2y, 3x^2 + a*z^4) = 1, naming the bad primes.

    This gcd is 1 exactly when z_n = z_1*|w_n| for every n, i.e. when the
    point is non-singular modulo every prime (Ayad, Manuscripta Math. 76,
    1992).  Otherwise z_1*|w_n| / z_n is a growing product of the primes
    dividing it, and residues and periods of w_n modulo p are not those of
    z_n.
    """
    g = _companion_gcd(curve, point)
    if g != 1:
        try:
            primes = sorted(factorize(g))
        except IncompleteFactorization as exc:
            primes = [*sorted(exc.factors), exc.cofactor]
        raise ValueError(
            f"gcd(2y, 3x^2 + a*z^4) = {g}: the point is singular modulo {primes}, "
            "so z_n != z_1*|w_n| and the modular sequence model does not apply"
        )


def generate_geometric(curve: CurveQ, point: PointQ, n_terms: int) -> EdsSequence:
    """z_1..z_N, each positive, from the division-polynomial recurrence.

    The exact integers w_n of `generate_ward` on `division_poly_seeds` give
    x(nP) = (x*w_n^2 - w_(n-1)*w_(n+1)) / (z^2*w_n^2), with w_0 = 0.  When
    gcd(2y, 3x^2 + a*z^4) = 1 that fraction is already in lowest terms, so
    z_n = z*|w_n| with no further arithmetic (Ayad's criterion, see
    `require_exact_companion`).  Otherwise z_n^2 is its denominator after
    one gcd per term.  Chord-tangent `add` does none of this work; it stays
    the independent oracle of the tests, the cache check and the verifier.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    torsion, order = is_torsion(point, curve)
    if torsion:
        raise ValueError(f"point is torsion (order {order}); the sequence degenerates")
    if not curve.contains(point):
        raise ValueError("point is not on the curve")
    seed = WardSeed(*division_poly_seeds(curve, point))
    z = point.z
    if _companion_gcd(curve, point) == 1:
        terms = [z * abs(w) for w in generate_ward(seed, n_terms).terms]
        return EdsSequence("geometric", terms, curve=curve, point=point)
    w = [0, *generate_ward(seed, n_terms + 1).terms]
    terms = []
    for n in range(1, n_terms + 1):
        den = (z * w[n]) ** 2
        den //= math.gcd(point.x * w[n] ** 2 - w[n - 1] * w[n + 1], den)
        z_n = math.isqrt(den)
        if z_n * z_n != den:
            raise ValueError(f"the reduced denominator of x({n}P) is not a square")
        terms.append(z_n)
    return EdsSequence("geometric", terms, curve=curve, point=point)


def generate_ward(seed: WardSeed, n_terms: int) -> EdsSequence:
    """Extend four seed values by the bilinear recurrences, checking exactness.

    Odd step:  w(2n+1) * w1^3      = w(n+2)*w(n)^3 - w(n+1)^3*w(n-1)
    Even step: w(2n)   * w2 * w1^2 = w(n+2)*w(n)*w(n-1)^2 - w(n)*w(n-2)*w(n+1)^2
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    w = [0, *seed.as_tuple()]
    degenerate_at = next((i for i in range(1, min(4, n_terms) + 1) if w[i] == 0), None)
    for m in range(5, n_terms + 1):
        if m % 2:
            n = (m - 1) // 2
            num = w[n + 2] * w[n] ** 3 - w[n + 1] ** 3 * w[n - 1]
            den = seed.w1**3
        else:
            n = m // 2
            num = w[n + 2] * w[n] * w[n - 1] ** 2 - w[n] * w[n - 2] * w[n + 1] ** 2
            den = seed.w2 * seed.w1**2
        if num % den != 0:
            raise InexactDivisionError(m, num, den)
        w.append(num // den)
        if w[m] == 0 and degenerate_at is None:
            degenerate_at = m
    return EdsSequence("ward", w[1 : n_terms + 1], seed=seed, degenerate_at=degenerate_at)


# ---------------------------------------------------------------------------
# reductions modulo p


def stream_mod_p(seeds: tuple[int, int, int, int], p: int, horizon: int) -> list[int]:
    """w_1..w_horizon modulo p (index 0 unused); needs p coprime to w1*w2."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    w1, w2 = seeds[0] % p, seeds[1] % p
    if w1 == 0 or w2 == 0:
        raise ValueError(f"stream modulo {p} needs p coprime to w1*w2")
    w = [0] * (max(horizon, 4) + 1)
    w[1], w[2], w[3], w[4] = (s % p for s in seeds)
    inv_odd = invmod(pow(w1, 3, p), p)
    inv_even = invmod(w2 * w1 * w1 % p, p)
    for m in range(5, horizon + 1):
        if m % 2:
            n = (m - 1) // 2
            w[m] = (w[n + 2] * w[n] ** 3 - w[n + 1] ** 3 * w[n - 1]) * inv_odd % p
        else:
            n = m // 2
            w[m] = (w[n + 2] * w[n] * w[n - 1] ** 2 - w[n] * w[n - 2] * w[n + 1] ** 2) * inv_even % p
    return w[: horizon + 1]


def _period_horizon(rank: int, p: int) -> int:
    """Stream length that confirms the period of a geometric stream mod p,
    rank the order of the point; the verifier also bounds a stated window by it."""
    return 2 * rank * (p - 1) + 2 * rank + 16


def _minimal_stream_period(stream: list[int], step: int, horizon: int) -> int | None:
    """Smallest period that is a multiple of `step`, verified on the window.

    Any period maps the zero set onto itself, and the zeros sit exactly on
    the multiples of the rank of apparition, so only multiples of the rank
    can be periods.
    """
    t = step
    while 2 * t <= horizon:
        if all(stream[n + t] == stream[n] for n in range(1, horizon - t + 1)):
            return t
        t += step
    return None


def ward_constants(w: list[int], rank: int, p: int) -> tuple[int, int]:
    """The constants (a, b) of Ward's symmetry w_{kr+n} = w_n * a^(nk) * b^(k^2) (mod p).

    Read off w_1..w_{r+2} (index 0 unused), r = `rank` the rank of
    apparition, from w_{r+1} = w_1*a*b and w_{r+2} = w_2*a^2*b (M. Ward,
    Amer. J. Math. 70, 1948).  Raises ValueError when w_1*w_2*w_{r+1}*w_{r+2}
    = 0 (mod p), which happens when r is not the rank or r < 3.
    """
    if w[1] * w[2] * w[rank + 1] * w[rank + 2] % p == 0:
        raise ValueError(f"w_1*w_2*w_{rank + 1}*w_{rank + 2} = 0 (mod {p}): {rank} is not the rank")
    a = w[rank + 2] * w[1] * invmod(w[2] * w[rank + 1], p) % p
    b = w[rank + 1] * invmod(w[1] * a, p) % p
    return a, b


def _symmetry_period(a: int, b: int, p: int) -> int:
    """Least t >= 1 with a^t = 1 and b^(t^2) = 1 (mod p); the valid t are its multiples.

    b^(k^2) = 1 exactly when l^ceil(e/2) divides k for every l^e || ord(b).
    """
    t = multiplicative_order(a, p)
    for ell, e in factorize(multiplicative_order(b, p)).items():
        t = math.lcm(t, ell ** ((e + 1) // 2))
    return t


def ward_period(seeds: tuple[int, int, int, int], p: int, rank: int) -> int:
    """Exact minimal period of the stream w_n mod p, from w_1..w_{rank+2} alone.

    `rank` must be the rank of apparition: the zeros of the stream sit
    exactly on its multiples, as they do on the multiples of the order of
    P mod p for a geometric source at a good prime.  A period maps the zero
    set onto itself, so it is some k*r, and by Ward's symmetry k*r is a
    period exactly when a^k = 1 and b^(k^2) = 1.  Costs O(r + log p), not
    the O(r*p) window `_minimal_stream_period` scans.
    """
    a, b = ward_constants(stream_mod_p(seeds, p, rank + 2), rank, p)
    return rank * _symmetry_period(a, b, p)


@dataclass
class EdsPeriodResult:
    p: int
    status: str  # "confirmed" | "unconfirmed"
    period: int | None
    rank: int | None  # rank of apparition (first zero index)
    window: tuple[int, int]
    n_points: int | None = None
    trace: int | None = None
    period_bound: int | None = None  # 2*(p-1)*#E(F_p) for geometric sources
    divides_bound: bool | None = None
    zeros_consistent: bool | None = None

    @property
    def confirmed(self) -> bool:
        return self.status == "confirmed"


def eds_period_mod_p(seq: EdsSequence, p: int, horizon: int | None = None) -> EdsPeriodResult:
    """Minimal verified period of the sequence modulo p.

    The period is computed on the canonical signed stream; for a geometric
    source it divides 2*(p-1)*#E(F_p), and the zeros fall exactly on the
    multiples of the order of the reduced point.  A geometric period is
    exact from Ward's symmetry (`ward_period`), and the zeros are checked on
    w_1..w_{2r+2}; a Ward-seeded one is searched for over the window.  When
    the horizon is shorter than twice the period the status is
    "unconfirmed" and no period is reported.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    if seq.source == "geometric":
        curve, point = seq.curve, seq.point
        if curve.disc % p == 0 or point.z % p == 0:
            raise ValueError(f"need p coprime to the discriminant and to z1 (p={p})")
        require_exact_companion(curve, point)
        seeds = division_poly_seeds(curve, point)
        cfp = CurveFp.from_curve(curve, p)
        n_points, trace = count_points(cfp)
        rank = point_order_fp(reduce_point(point, curve, p), cfp, n_points)
        bound = 2 * (p - 1) * n_points
        if horizon is None:
            horizon = _period_horizon(rank, p)
        prefix = stream_mod_p(seeds, p, 2 * rank + 2)
        zeros_consistent = all((prefix[n] == 0) == (n % rank == 0) for n in range(1, 2 * rank + 3))
        period = rank * _symmetry_period(*ward_constants(prefix, rank, p), p)
        if horizon < 2 * period:
            period = None
    else:
        n_points = trace = bound = zeros_consistent = None
        if horizon is None:
            horizon = max(4096, 16 * p)
        stream = stream_mod_p(seq.seed.as_tuple(), p, horizon)
        rank = next((n for n in range(1, horizon + 1) if stream[n] == 0), None)
        period = _minimal_stream_period(stream, rank or 1, horizon)

    if period is None:
        return EdsPeriodResult(
            p, "unconfirmed", None, rank, (1, horizon), n_points, trace, bound, None, zeros_consistent
        )
    return EdsPeriodResult(
        p,
        "confirmed",
        period,
        rank,
        (1, horizon),
        n_points,
        trace,
        bound,
        None if bound is None else bound % period == 0,
        zeros_consistent,
    )


# ---------------------------------------------------------------------------
# primitive (Zsigmondy) divisors


@dataclass
class PrimitiveReport:
    n: int
    term: int
    primitive_part: int  # product of the primitive prime powers of |term|
    primes: list[int]
    complete: bool  # False when factoring the primitive part timed out
    has_primitive: bool


def primitive_divisor_scan(seq: EdsSequence, *, rho_iters: int = 200_000) -> list[PrimitiveReport]:
    """Per-index primitive primes: divisors of z_n dividing no earlier term.

    The primitive part is isolated exactly with gcds against the running
    product of earlier terms, so `has_primitive` never depends on factoring;
    only the listed primes can be incomplete under the effort cap.
    """
    reports = []
    running = 1
    for n in range(1, len(seq) + 1):
        t = abs(seq.term(n))
        if t == 0:
            reports.append(PrimitiveReport(n, 0, 0, [], True, False))
            continue
        prim = t
        g = math.gcd(prim, running)
        while g > 1:
            prim //= g
            g = math.gcd(prim, g)
        primes: list[int] = []
        complete = True
        if prim > 1:
            try:
                primes = sorted(factorize(prim, rho_iters=rho_iters))
            except IncompleteFactorization as exc:
                primes = sorted(exc.factors)
                complete = False
        reports.append(PrimitiveReport(n, seq.term(n), prim, primes, complete, prim > 1))
        running *= t
    return reports


# ---------------------------------------------------------------------------
# sequence cache


def cache_key(curve: CurveQ, point: PointQ) -> str:
    payload = f"curve {curve.a} {curve.b} point {point.x} {point.y} {point.z}"
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_path(cache_dir: str, curve: CurveQ, point: PointQ) -> str:
    return os.path.join(cache_dir, cache_key(curve, point) + ".eds")


CACHE_HEADER = "edslab-eds 2\n"


def save_sequence(cache_dir: str, seq: EdsSequence) -> str:
    """Write the terms and a SHA-256 of the file above it, replacing the
    file atomically; a write that fails leaves the previous file as it was."""
    if seq.source != "geometric":
        raise ValueError("only geometric sequences are cached")
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, seq.curve, seq.point)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".eds-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            digest = hashlib.sha256()
            lines = (f"{n} {z}\n" for n, z in enumerate(seq.terms, start=1))
            for line in itertools.chain([CACHE_HEADER], lines):
                digest.update(line.encode())
                fh.write(line)
            fh.write(f"sha256 {digest.hexdigest()}\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_sequence(cache_dir: str, curve: CurveQ, point: PointQ, n_terms: int) -> EdsSequence | None:
    """Load a cached prefix, or None on a miss.

    A file without the header, without a matching SHA-256 line, with other
    than the lines 1..M, or with M < n_terms is a miss; so is one whose
    first or last requested term differs from the exact chord-tangent
    multiple.  The caller regenerates.
    """
    path = cache_path(cache_dir, curve, point)
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError):
        return None
    body, _, trailer = text[:-1].rpartition("\n")
    body += "\n"
    if not body.startswith(CACHE_HEADER) or trailer != f"sha256 {hashlib.sha256(body.encode()).hexdigest()}":
        return None
    terms = []
    try:
        for n, line in enumerate(body[len(CACHE_HEADER) :].splitlines(), start=1):
            n_str, z_str = line.split()
            if int(n_str) != n:
                return None
            terms.append(int(z_str))
    except ValueError:
        return None
    if len(terms) < n_terms:
        return None
    for n in (1, n_terms):
        if scalar_mul(n, point, curve).z != terms[n - 1]:
            return None
    return EdsSequence("geometric", terms[:n_terms], curve=curve, point=point)
