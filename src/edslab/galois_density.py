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
from itertools import product

from . import _clip, _span
from .elliptic import CurveQ, PointQ, order_class_primes, small_multiple
from .ntkernel import check_sieve_limit, echelon, is_prime

LINEAR_CAP = 31  # largest q `gl2_histogram` enumerates: q^4 matrices


@dataclass
class EmpiricalScan:
    x: int  # prime bound
    hits: int
    scanned: int


@dataclass
class DensityReport:
    q: int
    a: int
    b: int
    numerator: int
    denominator: int
    empirical: EmpiricalScan | None = None

    @property
    def delta(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def gl2_order(q: int) -> int:
    return (q * q - 1) * (q * q - q)


def count_gl2(q: int, a: int, b: int) -> DensityReport:
    """Exact count of J in GL2(F_q) with tr(J) = a and det(J) = b != 0, from
    `conjugacy_type_count`."""
    if not is_prime(q):
        raise ValueError(f"q={_clip(q)} must be prime")
    a %= q
    b %= q
    if b == 0:
        raise ValueError("the determinant class must be non-zero")
    return DensityReport(q, a, b, conjugacy_type_count(q, a, b), gl2_order(q))


def gl2_histogram(q: int) -> dict[tuple[int, int], int]:
    """Counts of invertible matrices by (trace, determinant) in one pass."""
    if not is_prime(q):
        raise ValueError(f"q={_clip(q)} must be prime")
    if q > LINEAR_CAP:
        raise ValueError(f"q={_clip(q)} exceeds the enumeration cap {LINEAR_CAP}")
    hist: dict[tuple[int, int], int] = {}
    for m11, m12, m21, m22 in product(range(q), repeat=4):
        det = (m11 * m22 - m12 * m21) % q
        if det:
            key = ((m11 + m22) % q, det)
            hist[key] = hist.get(key, 0) + 1
    return hist


def conjugacy_type_count(q: int, a: int, b: int) -> int:
    """Size of the (trace a, det b != 0) cell of GL2(F_q), from the factorization
    of x^2 - ax + b (Fulton-Harris, GTM 129, 5.2).

    Distinct roots in F_q: q^2 + q; irreducible: q^2 - q; double root: q^2.
    Over F_2 the polynomial is x^2 + ax + 1: a double root when a is even,
    else x^2 + x + 1, which is irreducible.
    """
    disc = (a * a - 4 * b) % q
    if disc == 0:
        return q * q
    if q > 2 and pow(disc, (q - 1) // 2, q) == 1:
        return q * q + q
    return q * q - q


def count_affine(q: int, a: int, b: int) -> DensityReport:
    """Pairs (J, u) with tr(J) = a, det(J) = b, and u outside Im(J - I).

    Im(J - I) has q^rank(J - I) elements, so each qualifying J contributes
    q^2 - q^rank translation parts u; the denominator is |GL2(F_q)| * q^2.
    det(J - I) = det J - tr J + 1 = b - a + 1 on the whole cell, so unless b
    = a - 1 every J - I is invertible and contributes nothing; if b = a - 1,
    J - I has rank 1, except J = I (a = 2, b = 1), of rank 0.
    """
    cell = count_gl2(q, a, b)
    a, b = cell.a, cell.b
    if (b - a + 1) % q:
        count = 0
    else:
        identity = int(a == 2 % q)  # then b = 1
        count = (cell.numerator - identity) * (q * q - q) + identity * (q * q - 1)
    return DensityReport(q, a, b, count, cell.denominator * q * q)


def affine_witness(q: int, a: int) -> tuple[tuple[int, int, int, int], tuple[int, int], bool]:
    """The explicit qualifying pair for b = a - 1: J = [[a-1, -1], [0, 1]], u = (1, 1).

    Returns (J, u, outside) where outside says u avoids Im(J - I): appending u
    raises the rank, as the image is the line {(x, 0)}.
    """
    j = ((a - 1) % q, (-1) % q, 0, 1)
    u = (1, 1)
    field = (lambda x: pow(x, -1, q), q.__rmod__)  # F_q
    m = [[j[0] - 1, j[1]], [j[2], j[3] - 1]]  # J - I
    augmented = [m[0] + [u[0]], m[1] + [u[1]]]
    return j, u, len(echelon(augmented, *field)[1]) > len(echelon(m, *field)[1])


def _empirical_chunk(args) -> dict[str, int]:
    """The tallies of `order_class_primes` over the primes in (start, stop],
    args its arguments but the tally, and the primes it yields as `hits`."""
    tally: dict[str, int] = {}
    hits = sum(1 for _ in order_class_primes(*args, tally))
    return {**tally, "hits": hits}


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

    The hits are the primes `elliptic.order_class_primes` yields with bad =
    disc*z1, the scan `find_witness` runs too.  No point is counted, as
    #E(F_p) = p + 1 - a_p = a - a_p (mod q) and ord(P) | #E, so q | ord(P)
    forces a_p = a (mod q).  Reported beside the exact affine density for
    (q, a, b = a-1).  A configurable exclusion list stands in for the
    finitely many primes where the group-theoretic model is not available.
    jobs (at least 1, clamped to the CPU count) worker processes each sieve
    and scan one of jobs equal ranges of [1, x] and sum their tallies, so
    reruns are deterministic.  A traced run writes the summed tallies and
    the hits in one `galois_density.scan` span.
    """
    if not curve.contains(point):
        raise ValueError("point is not on the curve")
    if not is_prime(q):
        raise ValueError("q must be prime")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    b = (a - 1) % q
    if b == 0:
        raise ValueError("need a != 1 (mod q) so that the determinant class b = a-1 is non-zero")
    report = count_affine(q, a % q, b)
    check_sieve_limit(x)
    q_point = small_multiple(q, point, curve)
    bad = curve.disc * point.z
    chunks = [(curve, point, q_point, q, b, bad, exclusions, x * (i + 1) // jobs, x * i // jobs) for i in range(jobs)]
    with _span("galois_density.scan", x=x, q=q, jobs=jobs, base="rational" if q_point else "per-prime") as record:
        if jobs > 1:
            import multiprocessing

            with multiprocessing.Pool(jobs) as pool:
                tallies = pool.map(_empirical_chunk, chunks)
        else:
            tallies = [_empirical_chunk(chunks[0])]
        counts = {key: sum(tally[key] for tally in tallies) for key in tallies[0]}
        record.update(primes=sum(counts.values()), **counts)
    hits = counts["hits"]
    report.empirical = EmpiricalScan(x, hits, counts["residue_class"] + counts["order"] + hits)
    return report
