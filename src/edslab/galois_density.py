"""Exact matrix and affine-group densities over F_q, and empirical prime scans.

The linear density counts J in GL2(F_q) with prescribed trace and
determinant; the affine variant additionally counts translation parts u
outside the column space of J - I.  Every density is an exact rational.
Empirical scans tally primes p = a-1 (mod q) at which q divides the order of
a fixed rational point modulo p, which forces the trace a_p = a (mod q).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .elliptic import CurveFp, CurveQ, PointQ, q_divides_order, reduce_point
from .ntkernel import is_prime, sieve_primes

DEFAULT_LINEAR_CAP = 31
DEFAULT_AFFINE_CAP = 13


@dataclass
class EmpiricalScan:
    x: int  # prime bound
    hits: int
    scanned: int
    small_sample: bool

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.hits, self.scanned) if self.scanned else Fraction(0)


@dataclass
class DensityReport:
    q: int
    a: int
    b: int
    numerator: int
    denominator: int
    kind: str  # "gl2" | "affine"
    empirical: EmpiricalScan | None = None

    @property
    def delta(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def to_json_dict(self) -> dict:
        delta = self.delta
        payload = {
            "q": self.q,
            "a": self.a,
            "b": self.b,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "delta_num": delta.numerator,
            "delta_den": delta.denominator,
        }
        if self.empirical is not None:
            payload["empirical"] = {
                "x": self.empirical.x,
                "hits": self.empirical.hits,
                "scanned": self.empirical.scanned,
            }
        return payload


def gl2_order(q: int) -> int:
    return (q * q - 1) * (q * q - q)


def _validate_q(q: int, cap: int) -> None:
    if not is_prime(q):
        raise ValueError(f"q={q} must be prime")
    if q > cap:
        raise ValueError(f"q={q} exceeds the enumeration cap {cap}")


def _trace_det_cell(q: int, a: int, b: int, cap: int) -> tuple[int, int, list[tuple[int, ...]]]:
    """(a mod q, b mod q, every J = (m11, m12, m21, m22) over F_q with tr(J) = a
    and det(J) = b != 0), from the q^3 matrices with trace a."""
    _validate_q(q, cap)
    a %= q
    b %= q
    if b == 0:
        raise ValueError("the determinant class must be non-zero")
    cell = [
        (m11, m12, m21, (a - m11) % q)
        for m11, m12, m21 in product(range(q), repeat=3)
        if (m11 * (a - m11) - m12 * m21) % q == b
    ]
    return a, b, cell


def count_gl2(q: int, a: int, b: int, cap: int = DEFAULT_LINEAR_CAP) -> DensityReport:
    """Exact count of J in GL2(F_q) with tr(J) = a and det(J) = b != 0, by enumeration."""
    a, b, cell = _trace_det_cell(q, a, b, cap)
    return DensityReport(q, a, b, len(cell), gl2_order(q), "gl2")


def gl2_histogram(q: int, cap: int = DEFAULT_LINEAR_CAP) -> dict[tuple[int, int], int]:
    """Counts of invertible matrices by (trace, determinant) in one pass."""
    _validate_q(q, cap)
    hist: dict[tuple[int, int], int] = {}
    for m11, m12, m21, m22 in product(range(q), repeat=4):
        det = (m11 * m22 - m12 * m21) % q
        if det:
            key = ((m11 + m22) % q, det)
            hist[key] = hist.get(key, 0) + 1
    return hist


def conjugacy_type_count(q: int, a: int, b: int) -> int:
    """Predicted (trace, det) cell size from the factorization of x^2 - ax + b.

    Distinct roots in F_q: q^2 + q; irreducible: q^2 - q; double root: q^2.
    """
    disc = (a * a - 4 * b) % q
    if disc == 0:
        return q * q
    if pow(disc, (q - 1) // 2, q) == 1:
        return q * q + q
    return q * q - q


def _rank(rows: tuple[tuple[int, ...], tuple[int, ...]], q: int) -> int:
    """Rank over F_q of a matrix with two rows: 2 if some 2x2 minor is non-zero."""
    if any((x0 * y1 - y0 * x1) % q for (x0, x1), (y0, y1) in combinations(zip(*rows), 2)):
        return 2
    return 1 if any(v % q for row in rows for v in row) else 0


def count_affine(q: int, a: int, b: int, cap: int = DEFAULT_AFFINE_CAP) -> DensityReport:
    """Pairs (J, u) with tr(J) = a, det(J) = b, and u outside Im(J - I).

    Im(J - I) has q^rank(J - I) elements, so each qualifying J contributes
    q^2 - q^rank translation parts u; the denominator is |GL2(F_q)| * q^2.
    """
    a, b, cell = _trace_det_cell(q, a, b, cap)
    count = sum(q * q - q ** _rank(((j[0] - 1, j[1]), (j[2], j[3] - 1)), q) for j in cell)
    return DensityReport(q, a, b, count, gl2_order(q) * q * q, "affine")


def affine_witness(q: int, a: int) -> tuple[tuple[int, int, int, int], tuple[int, int], bool]:
    """The explicit qualifying pair for b = a - 1: J = [[a-1, -1], [0, 1]], u = (1, 1).

    Returns (J, u, outside) where outside says u avoids Im(J - I): appending u
    raises the rank, as the image is the line {(x, 0)}.
    """
    j = ((a - 1) % q, (-1) % q, 0, 1)
    u = (1, 1)
    m = ((j[0] - 1, j[1]), (j[2], j[3] - 1))  # J - I
    return j, u, _rank((m[0] + u[:1], m[1] + u[1:]), q) > _rank(m, q)


def _scan_one_prime(curve: CurveQ, point: PointQ, q: int, b: int, p: int) -> bool:
    """Whether p = b (mod q) and q | ord(P mod p), without counting points:
    `q_divides_order` searches only the multiples of q in the Hasse interval."""
    if p % q != b:
        return False
    cfp = CurveFp(p, curve.a % p, curve.b % p, True)
    return q_divides_order(reduce_point(point, curve, p), cfp, q)


def _empirical_chunk(args) -> int:
    curve, point, q, b, primes = args
    return sum(1 for p in primes if p % q == b and _scan_one_prime(curve, point, q, b, p))


def empirical_density(
    curve: CurveQ,
    point: PointQ,
    q: int,
    a: int,
    x: int,
    exclusions: tuple[int, ...] = (),
    jobs: int = 1,
) -> DensityReport:
    """Frequency of primes p <= x with a_p = a, p = a-1 (mod q), q | ord(P mod p).

    A prime is a hit iff p = a-1 (mod q) and q | ord(P mod p), so no point
    is counted: #E(F_p) = p + 1 - a_p = a - a_p (mod q) and ord(P) | #E,
    so q | ord(P) forces a_p = a (mod q).  `elliptic.q_divides_order`
    decides q | ord(P mod p) by a search over the multiples of q in the
    Hasse interval and one scalar multiple.  Reported beside the exact affine
    density for (q, a, b = a-1).  Only odd primes of good reduction coprime
    to z1 are scanned; a configurable exclusion list stands in for the
    finitely many primes where the group-theoretic model is not available.
    jobs (at least 1, clamped to the CPU count) worker processes split the
    primes and sum their tallies, so reruns are deterministic.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    b = (a - 1) % q
    if b == 0:
        raise ValueError("need a != 1 (mod q) so that the determinant class b = a-1 is non-zero")
    exact = count_affine(q, a % q, b)
    disc = curve.disc
    primes = [
        p
        for p in sieve_primes(x)
        if p != 2 and p != q and p not in exclusions and disc % p and point.z % p
    ]
    payload = (curve, point, q, b)
    if jobs > 1 and len(primes) > 64:
        import multiprocessing

        chunks = [payload + (primes[i::jobs],) for i in range(jobs)]
        with multiprocessing.Pool(jobs) as pool:
            hits = sum(pool.map(_empirical_chunk, chunks))
    else:
        hits = _empirical_chunk(payload + (primes,))
    scan = EmpiricalScan(x, hits, len(primes), small_sample=hits < 30)
    return DensityReport(q, a % q, b, exact.numerator, exact.denominator, "affine", scan)
