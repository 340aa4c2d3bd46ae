"""Exact elliptic curve arithmetic over Q and over prime fields F_p.

Rational points are kept in the normalized shape (x/z^2, y/z^3) with
gcd(x, y, z) = 1 and z > 0, so the z-coordinate of nP is exactly the
denominator term of the associated divisibility sequence.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import _span
from .ntkernel import is_prime, iter_primes, order_from_multiple

TORSION_SEARCH_BOUND = 12  # Mazur: no rational torsion point has a larger order
# the trace a_p = a (mod q) that the witness finder and the empirical scan
# look for unless told otherwise
DEFAULT_A_TARGET = 3
# largest denominator, in bits, of the rational q*P `small_multiple` forms, as
# estimated from 2P
RATIONAL_BASE_MAX_BITS = 2048
# the 13 j-invariants of the curves over Q with complex multiplication, each
# with the discriminant D of its endomorphism ring (Silverman, GTM 151, App. A
# §3); the CM field is Q(sqrt(D))
CM_DISCRIMINANTS = {
    0: -3, 1728: -4, -3375: -7, 8000: -8, -32768: -11, 54000: -12, 287496: -16, -884736: -19,
    -12288000: -27, 16581375: -28, -884736000: -43, -147197952000: -67, -262537412640768000: -163,
}


@dataclass(frozen=True)
class CurveQ:
    """Short Weierstrass curve y^2 = x^3 + a*x + b over Q with a, b integers."""

    a: int
    b: int

    def __post_init__(self):
        if self.disc == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")

    @property
    def disc(self) -> int:
        return 4 * self.a**3 + 27 * self.b**2

    @property
    def cm_discriminant(self) -> int | None:
        """D of `CM_DISCRIMINANTS` if the curve has complex multiplication, else None."""
        # j = 6912 a^3 / disc
        return next((d for j, d in CM_DISCRIMINANTS.items() if 6912 * self.a**3 == j * self.disc), None)

    def contains(self, point: "PointQ") -> bool:
        if point.is_infinity:
            return True
        x, y, z = point.x, point.y, point.z
        return y * y == x**3 + self.a * x * z**4 + self.b * z**6

    def bad_prime_product(self, point: "PointQ") -> int:
        """disc*z1*2*y1: p is a good prime for the point iff p does not divide it."""
        return self.disc * point.z * 2 * point.y


@dataclass(frozen=True)
class PointQ:
    """Point (x/z^2, y/z^3) with gcd(x, y, z) = 1, z > 0; z = 0 is infinity."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        if self.z < 0:
            raise ValueError("z must be non-negative (0 means infinity)")
        if self.z > 0 and math.gcd(math.gcd(self.x, self.y), self.z) != 1:
            raise ValueError("coordinates must be coprime")

    @classmethod
    def infinity(cls) -> "PointQ":
        return cls(1, 1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.z == 0


# ---------------------------------------------------------------------------
# division values: n*P over Q from Ward's recurrence


class InexactDivisionError(ValueError):
    """A bilinear recurrence step did not divide exactly."""

    def __init__(self, index: int, numerator: int, denominator: int):
        # sizes, not values: str() raises on an int past 4,300 decimal digits
        sizes = f"a {numerator.bit_length()}-bit numerator by a {denominator.bit_length()}-bit denominator"
        super().__init__(f"inexact division at index {index}: {sizes}")
        self.index = index


def division_poly_seeds(curve: CurveQ, point: PointQ) -> tuple[int, int, int, int]:
    """Integer seed values of the division-polynomial sequence at the point.

    These are the evaluations of the first four division polynomials at
    (x/z^2, y/z^3), cleared of denominators by the weight z^(n^2-1); they
    start the bilinear recurrences, whose terms satisfy z_n = z_1*|w_n| when
    `eds.require_exact_companion` passes.
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


def _z_from_w(point: PointQ, coprime: bool, n: int, w_prev: int, w_n: int, w_next: int) -> int:
    """z_n from w_(n-1), w_n, w_(n+1) of `division_poly_seeds`.

    x(nP) = (x*w_n^2 - w_(n-1)*w_(n+1)) / (z^2*w_n^2).  When the companion gcd
    is 1 (`coprime`) that fraction is already in lowest terms, so z_n = z*|w_n|
    (Ayad's criterion, see `eds.require_exact_companion`); otherwise z_n^2 is
    its denominator after one gcd.
    """
    if coprime:
        return point.z * abs(w_n)
    den = (point.z * w_n) ** 2
    den //= math.gcd(point.x * w_n**2 - w_prev * w_next, den)
    z_n = math.isqrt(den)
    if z_n * z_n != den:
        raise ValueError(f"the reduced denominator of x({n}P) is not a square")
    return z_n


def _ward_step(w: list[int], m: int) -> int:
    """Numerator of w_m from the terms below it, by Ward's odd or even step.

    Odd step:  w(2n+1) * w1^3      = w(n+2)*w(n)^3 - w(n+1)^3*w(n-1)
    Even step: w(2n)   * w2 * w1^2 = w(n+2)*w(n)*w(n-1)^2 - w(n)*w(n-2)*w(n+1)^2
    """
    n = m // 2
    if m % 2:
        return w[n + 2] * w[n] ** 3 - w[n + 1] ** 3 * w[n - 1]
    return w[n + 2] * w[n] * w[n - 1] ** 2 - w[n] * w[n - 2] * w[n + 1] ** 2


def _ward_denominators(w1: int, w2: int) -> tuple[int, int]:
    """The divisors of the even and the odd `_ward_step`: w2*w1^2 and w1^3."""
    return (w2 * w1 * w1, w1**3)


def _exact_div(num: int, den: int, index: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError(index, num, den)
    return q


def _double_block(w: list[int], b: int) -> tuple[int, ...]:
    """The numerators of the block at 2j + b from the block w at j: `_ward_step`
    at m = 3 + b..10 + b, unrolled so that each square and cube is formed once."""
    w0, w1, w2, w3, w4, w5, w6, w7 = w
    s1, s2, s3, s4, s5, s6 = w1 * w1, w2 * w2, w3 * w3, w4 * w4, w5 * w5, w6 * w6
    c2, c3, c4, c5 = s2 * w2, s3 * w3, s4 * w4, s5 * w5
    m4, m5 = w2 * (w4 * s1 - w0 * s3), w4 * c2 - c3 * w1
    m6, m7 = w3 * (w5 * s2 - w1 * s4), w5 * c3 - c4 * w2
    m8, m9 = w4 * (w6 * s3 - w2 * s5), w6 * c4 - c5 * w3
    m10 = w5 * (w7 * s4 - w3 * s6)
    if b:
        return m4, m5, m6, m7, m8, m9, m10, w7 * c5 - s6 * w6 * w4
    return w3 * s1 * w1 - c2 * w0, m4, m5, m6, m7, m8, m9, m10


def _block_at_zero(seeds: tuple[int, int, int, int], p: int | None) -> list[int]:
    """w_-3..w_4 modulo p, or over Z when p is None; refused unless w1*w2 is non-zero there."""
    w1, w2, w3, w4 = seeds if p is None else (s % p for s in seeds)
    if w1 == 0 or w2 == 0:
        raise ValueError("w1 and w2 must be non-zero" if p is None else f"stream modulo {p} needs p coprime to w1*w2")
    return [-w3, -w2, -w1, 0, w1, w2, w3, w4]


def ladder_block(seeds: tuple[int, int, int, int], p: int | None, n: int) -> list[int]:
    """w_{n-3}..w_{n+4} modulo p, or over Z when p is None, in O(log n) steps.

    Shipsey's double-and-add (R. Shipsey, thesis, Goldsmiths 2000): with w_{-m} = -w_m,
    one `_double_block` per bit b of n maps the block at j (w_{j-3}..w_{j+4}) to the one
    at 2j + b.  Modulo p its numerators are multiplied by the inverses of w2*w1^2 (even
    steps) and w1^3 (odd), so p must be coprime to w1*w2; over Z each division must be
    exact, or `InexactDivisionError` names the index.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    w = _block_at_zero(seeds, p)  # the block at j = 0
    den = _ward_denominators(w[4], w[5])
    bits = map(int, bin(n)[2:])
    if p is not None:
        inv = [pow(d % p, -1, p) for d in den]
        pairs = (inv[::-1], inv)  # the inverses of the steps 3 + b and 4 + b
        for b in bits:
            n0, n1, n2, n3, n4, n5, n6, n7 = _double_block(w, b)
            x, y = pairs[b]
            w = [n0 * x % p, n1 * y % p, n2 * x % p, n3 * y % p, n4 * x % p, n5 * y % p, n6 * x % p, n7 * y % p]
        return w
    j = 0
    for b in bits:
        steps = range(3 + b, 11 + b)  # step m gives w_(2j + m - 6)
        w = [_exact_div(num, den[m & 1], m + 2 * j - 6) for m, num in zip(steps, _double_block(w, b))]
        j = 2 * j + b
    return w


def ward_terms(seeds: tuple[int, int, int, int], p: int | None, n: int) -> list[int]:
    """w_0..w_n (w_0 = 0, n >= 1) modulo p, or over Z when p is None, one Ward step a term
    from the seeds as `_block_at_zero` checks them for the ladder too.  Each w_i^2 and w_i^3
    is formed once; a step is multiplied by a Ward inverse mod p or divided exactly over Z."""
    if n < 1:
        raise ValueError("need at least one term")
    w = [0, *_block_at_zero(seeds, p)[4:]]
    den = [d if p is None else pow(d, -1, p) for d in _ward_denominators(w[1], w[2])]
    sq, cu = [x * x for x in w[:4]], [x**3 for x in w[:3]]  # w_i^2 for i <= 3, w_i^3 for i <= 2
    for m in range(5, n + 1):
        i = m >> 1
        if m & 1:
            cu.append(sq[i + 1] * w[i + 1])
            num = w[i + 2] * cu[i] - cu[i + 1] * w[i - 1]
        else:
            sq.append(w[i + 1] * w[i + 1])
            num = w[i] * (w[i + 2] * sq[i - 1] - w[i - 2] * sq[i + 1])
        w.append(num * den[m & 1] % p if p else _exact_div(num, den[m & 1], m))
    return w[: n + 1]


def _last_doubling(seeds: tuple[int, int, int, int], n: int, lo: int, hi: int) -> list[int]:
    """w_(n+lo)..w_(n+hi) over Z, -3 <= lo <= hi <= 4: the exact `ladder_block` at
    n // 2, then only those terms of the doubling that reaches n."""
    j, b = divmod(n, 2)
    block, den = ladder_block(seeds, None, j), _ward_denominators(*seeds[:2])
    steps = range(lo + 6 + b, hi + 7 + b)  # step m gives w_(2j + m - 6)
    return [_exact_div(_ward_step(block, m), den[m & 1], m + 2 * j - 6) for m in steps]


def scalar_mul(n: int, p: PointQ, curve: CurveQ) -> PointQ:
    """n*P for n >= 0, from the division values at P (Silverman, AEC,
    Ex. 3.7): x(nP) = x - psi_(n-1)*psi_(n+1)/psi_n^2 and y(nP) =
    psi_(2n)/(2*psi_n^4).

    `_last_doubling` gives w_(n-2)..w_(n+2), one even `_ward_step` on them
    gives w_(2n), and z_n comes from `_z_from_w`.  Then x(nP) = (x*w_n^2 -
    w_(n-1)*w_(n+1)) / (z^2*w_n^2) and y(nP) = w_(2n) / (2*w_n^4*z^3), and
    the coordinates over z_n^2 and z_n^3 are two exact divisions.  w_n = 0
    exactly when nP = O.  A reduced denominator of x(nP) that is not a
    square, or a y(nP) whose denominator is not z_n^3, raises ValueError;
    neither happens on an integral model.  A point with y = 0 (w_2 = 0,
    which the ladder cannot divide by) is its own odd multiples.
    """
    if p.is_infinity or (n % 2 == 0 and p.y == 0):
        return PointQ.infinity()
    if p.y == 0:
        return p
    seeds = division_poly_seeds(curve, p)
    w = _last_doubling(seeds, n, -2, 2)
    w_prev, w_n, w_next = w[1:4]
    if w_n == 0:
        return PointQ.infinity()
    z_n = _z_from_w(p, _companion_gcd(curve, p) == 1, n, w_prev, w_n, w_next)
    w_2n = _exact_div(_ward_step(w, 4), _ward_denominators(*seeds[:2])[0], 2 * n)
    # z_n^2 is the reduced denominator of x(nP), so this division is exact
    x = (p.x * w_n**2 - w_prev * w_next) * z_n**2 // (p.z * w_n) ** 2
    y, rem = divmod(w_2n * z_n**3, 2 * w_n**4 * p.z**3)
    if rem:
        raise ValueError(f"the denominator of y({n}P) is not the cube of z_{n}")
    return PointQ(x, y, z_n)


def is_torsion(p: PointQ, curve: CurveQ) -> tuple[bool, int | None]:
    """(True, n) when n = ord(P) is finite, else (False, None), by rules.

    Nagell-Lutz (Silverman, AEC, Cor. VIII.7.2): on this integral model a
    torsion point P has z = 1, and y = 0 or y^2 | 4a^3 + 27b^2, and 2P,
    with x(2P) = x - w_3/w_2^2, is integral too.  By Mazur the order is
    then the first n <= 12 with w_n = psi_n(P) = 0 of `ward_terms` over Z,
    or 2 when y = 0: w_2 = 0, which Ward's even step cannot divide by.
    """
    if p.is_infinity:
        return True, 1
    if p.z != 1 or (p.y != 0 and curve.disc % (p.y * p.y)):
        return False, None
    if p.y == 0:
        return True, 2
    seeds = division_poly_seeds(curve, p)
    if seeds[2] % (seeds[1] * seeds[1]):
        return False, None
    w = ward_terms(seeds, None, TORSION_SEARCH_BOUND)
    order = next((n for n in range(1, len(w)) if w[n] == 0), None)
    return order is not None, order


# ---------------------------------------------------------------------------
# reduction modulo p

PointFp = tuple[int, int] | None  # None is the point at infinity


@dataclass(frozen=True)
class CurveFp:
    """Reduction of a curve modulo an odd prime; `good` records p ∤ disc."""

    p: int
    a: int
    b: int
    good: bool

    @classmethod
    def from_curve(cls, curve: CurveQ, p: int) -> "CurveFp":
        if p == 2 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        return cls(p, curve.a % p, curve.b % p, curve.disc % p != 0)


def reduce_point(p: PointQ, curve: CurveQ, prime: int) -> PointFp:
    """Reduce a rational point mod prime; needs prime ∤ z."""
    if p.is_infinity:
        return None
    if p.z % prime == 0:
        return None  # reduces into the identity
    zi = pow(p.z, -1, prime)
    z2 = zi * zi % prime
    return (p.x * z2 % prime, p.y * z2 * zi % prime)


def fp_scalar_mul(n: int, pt: PointFp, p: int, a: int) -> PointFp:
    """n*pt for any integer n on y^2 = x^3 + a*x + b over F_p (b is not
    needed), left to right in Jacobian coordinates (X/Z^2, Y/Z^3), Z = 0
    standing for O.  Each bit doubles the running point and, on a 1, adds
    the affine pt by mixed addition (Cohen, Miyaji, Ono 1998), so the only
    inversion is the one back to affine at the end.  Doubling sets Z to
    2YZ, which is 0 at O and at a point with Y = 0."""
    if pt is None or n == 0:
        return None
    x, y = pt
    if n < 0:
        n, y = -n, -y % p
    X, Y, Z = x, y, 1
    for bit in bin(n)[3:]:
        yy, zz = Y * Y % p, Z * Z % p
        s, m = 4 * X * yy % p, (3 * X * X + a * zz * zz) % p
        X = (m * m - 2 * s) % p
        Y, Z = (m * (s - X) - 8 * yy * yy) % p, 2 * Y * Z % p
        if bit == "0":
            continue
        if Z == 0:
            X, Y, Z = x, y, 1
            continue
        zz = Z * Z % p
        h, r = (x * zz - X) % p, (y * zz * Z - Y) % p
        if h:
            hh = h * h % p
            hhh, v = h * hh % p, X * hh % p
            X = (r * r - hhh - 2 * v) % p
            Y, Z = (r * (v - X) - Y * hhh) % p, Z * h % p
        elif r:  # the running point is -pt
            Z = 0
        else:  # the running point is pt: double the affine pt
            s, m = 4 * x * y * y % p, (3 * x * x + a) % p
            X = (m * m - 2 * s) % p
            Y, Z = (m * (s - X) - 8 * y**4) % p, 2 * y % p
    if Z == 0:
        return None
    zi = pow(Z, -1, p)
    z2 = zi * zi % p
    return (X * z2 % p, Y * z2 * zi % p)


def count_points_naive(curve: CurveFp) -> tuple[int, int]:
    """(#E(F_p), a_p) by the quadratic-character sum over all x, in O(p).

    #E = p + 1 + sum_x chi(x^3 + ax + b).  It shares no code with
    `count_points` beyond the curve record, so the verifier uses it as the
    independent recount and the tests use it as the oracle.
    """
    p, a, b = curve.p, curve.a, curve.b
    qr = bytearray(p)  # 2 marks a nonzero square
    for i in range(1, (p - 1) // 2 + 1):
        qr[i * i % p] = 2
    qr[0] = 1
    total = p + 1
    for x in range(p):
        total += qr[(x * x * x + a * x + b) % p] - 1
    return total, p + 1 - total


# below this prime the O(p) sum runs, as Mestre's search may run out of points;
# above it the search is faster (naive vs Mestre, best of 5 on 12 curves a prime:
# 28 vs 28 us at p in 150-200, 41 vs 35 at 230-250, 67 vs 37 at 300-400; Python 3.11, 2 cores)
NAIVE_COUNT_BELOW = 230
# points tried before the fallback; for p > 229 E or its twist has a point
# whose order alone pins #E down (Mestre), so only small primes can run out
MESTRE_MAX_POINTS = 16


def hasse_interval(p: int) -> tuple[int, int]:
    """[p+1-w, p+1+w], w = isqrt(4p), which holds #E(F_p) at a good prime p (Hasse)."""
    w = math.isqrt(4 * p)
    return p + 1 - w, p + 1 + w


def multiple_in_hasse(base: PointFp, p: int, a: int, d: int = 1) -> int | None:
    """Some m > 0 with d | m and (m/d)*base = O, found by baby-step giant-step
    over the multiples of d in the Hasse interval [p+1-w, p+1+w] of
    `hasse_interval`, on y^2 = x^3 + a*x + b over F_p; None exactly when no
    multiple of d there has that property.  With base = d*P, m*P = O.

    It looks for k*base = O with k in [lo, hi] = [ceil((p+1-w)/d),
    floor((p+1+w)/d)], from s = isqrt(hi-lo)+1 baby steps j*base.  If they
    find o = ord(base) (j*base = O, or x(j*base) = x(j'*base), when o = j +
    j'), m = o*d, or None if no multiple of o lies in [lo, hi].  Otherwise o
    > 2s+1, so each giant window [c-s, c+s] holds at most one k with k*base
    = O, a baby match at c gives it, and m = k*d for the least such k >= lo.
    The windows sit on the multiples c = g*(2s+1), from the first that
    reaches lo, so the first giant point is g*stride, a short scalar
    multiple of the stride (2s+1)*base, itself the sum of the last two baby
    steps.  A k below lo in that window is skipped: the next, k+o, lies in a
    later window.  At a good prime with d = 1 the result is never None, as
    #E lies in the interval.

    Both loops add affine points by the chord-tangent law, one inversion
    per step.  A baby step j*base + base (j >= 2) is a chord: x(j*base) =
    x(base) would have matched the baby table first.  The stride is a chord,
    as o > 2s+1.  A giant step may meet O, the stride itself or its negative.
    """
    lo, hi = hasse_interval(p)
    lo, hi = -(-lo // d), hi // d
    if lo > hi:
        return None
    s = math.isqrt(hi - lo) + 1
    order = None
    if base is None:
        order = 1
    elif base[1] == 0:
        order = 2
    else:
        bx, by = base
        baby = {bx: (1, by)}  # x(j*base) -> (j, y(j*base)), 1 <= j <= s
        lam = (3 * bx * bx + a) * pow(2 * by, -1, p) % p
        px, py = bx, by  # (j-1)*base
        x = (lam * lam - 2 * bx) % p  # (x, y) = j*base, from j = 2
        y = (lam * (bx - x) - by) % p
        for j in range(2, s + 2):
            hit = baby.get(x)
            if hit is not None:  # j*base = -hit*base, as no smaller multiple is O
                order = j + hit[0]
                break
            if j > s:
                break
            baby[x] = (j, y)
            lam = (y - by) * pow(x - bx, -1, p) % p
            px, py, x = x, y, (lam * lam - x - bx) % p
            y = (lam * (px - x) - py) % p
    if order is not None:
        return order * d if -(-lo // order) * order <= hi else None
    lam = (y - py) * pow(x - px, -1, p) % p  # (2s+1)*base from s*base and (s+1)*base
    sx = (lam * lam - x - px) % p
    sy = (lam * (px - sx) - py) % p
    step = 2 * s + 1
    g = -(-(lo - s) // step)
    c = g * step
    r = fp_scalar_mul(g, (sx, sy), p, a)
    while True:  # the first window has c - s <= lo <= hi; each later one is tested as c moves
        if r is None:
            k = c
        else:
            hit = baby.get(r[0])
            k = None if hit is None else c - hit[0] if hit[1] == r[1] else c + hit[0]
        if k is not None and k >= lo:
            return k * d if k <= hi else None
        c += step
        if c - s > hi:
            return None
        if r is None:
            r = (sx, sy)
        elif r[0] != sx:
            rx, ry = r
            lam = (ry - sy) * pow(rx - sx, -1, p) % p
            x = (lam * lam - rx - sx) % p
            r = (x, (lam * (sx - x) - sy) % p)
        elif r[1] == sy:  # r is the stride
            r = fp_scalar_mul(2, r, p, a)
        else:
            r = None


def small_multiple(q: int, point: PointQ, curve: CurveQ) -> PointQ | None:
    """q*P over Q, the base `q_divides_order` reduces at every prime, or None
    when its denominator would pass RATIONAL_BASE_MAX_BITS bits.

    Heights grow quadratically, so that size is about q^2/4 times the bits
    of z(2P), which `_z_from_w` reads from w_1, w_2 and w_3 without forming
    2P.  Reducing q*P mod p costs what multiplying P mod p by q does
    when z(q*P) has 2,500-3,500 bits, a third of that at the 100-300 bits
    of q <= 13 on small points, and 11 times as much at q = 307, where
    forming q*P also takes about a second.  The estimate from 2P is low by
    up to half on small points, so the bound sits below that crossover.
    """
    if not (point.is_infinity or point.y == 0):  # else 2P = O
        w1, w2, w3, _ = division_poly_seeds(curve, point)
        double_z = _z_from_w(point, _companion_gcd(curve, point) == 1, 2, w1, w2, w3)
        if q * q * double_z.bit_length() > 4 * RATIONAL_BASE_MAX_BITS:
            return None
    return scalar_mul(q, point, curve)


def q_divides_order(curve: CurveQ, point: PointQ, q_point: PointQ | None, p: int, q: int) -> bool:
    """Whether the prime q divides ord(P mod p), without counting points, at
    an odd prime p of good reduction with p != q and p not dividing z(P).

    q_point is q*P over Q from `small_multiple`, or None.  Reduction mod p is
    a homomorphism at a good prime (Silverman, AEC, Prop. VII.2.1), so the
    search base q*(P mod p) is q_point mod p, which is O when p | z(q*P):
    then ord(P mod p) = q.  With q_point None it is multiplied out mod p.
    ord(P mod p) divides #E, which lies in the Hasse interval, so if q |
    ord(P mod p) some multiple of q there kills it, and `multiple_in_hasse`
    over the multiples of q is not None.  Any m it returns is a multiple of
    ord(P mod p), so q | ord(P mod p) iff (m with every factor q removed)*(P
    mod p) != O; only then is P itself reduced, given a rational base.
    """
    a = curve.a % p
    pt = None
    if q_point is None:
        pt = reduce_point(point, curve, p)
        base = fp_scalar_mul(q, pt, p, a)
    else:
        base = reduce_point(q_point, curve, p)
    m = multiple_in_hasse(base, p, a, q)
    if m is None:
        return False
    while m % q == 0:
        m //= q
    return fp_scalar_mul(m, pt or reduce_point(point, curve, p), p, a) is not None


def order_class_primes(
    curve: CurveQ, point: PointQ, q_point: PointQ | None, q: int, b: int, bad: int,
    exclusions: tuple[int, ...], stop: int, start: int, tally: dict[str, int],
) -> Iterator[int]:
    """The primes p in (start, stop] with p = b (mod q) and q | ord(P mod p),
    ascending, from `iter_primes`; q_point is `small_multiple(q, point,
    curve)`, and bad a multiple of disc*z1, as `q_divides_order` requires.

    Every other prime is counted in tally under the first test it fails:
    `excluded` (2, q and the exclusions), `bad` (p | bad), `residue_class`
    and `order`.  The counts are kept in locals and written into tally as a
    prime is yielded and as the scan ends: no call is made per prime.
    """
    excluded = bad_primes = residue_class = order = 0
    for p in iter_primes(stop, start + 1):
        if p == 2 or p == q or p in exclusions:
            excluded += 1
        elif bad % p == 0:
            bad_primes += 1
        elif p % q != b:
            residue_class += 1
        elif q_divides_order(curve, point, q_point, p, q):
            tally.update(excluded=excluded, bad=bad_primes, residue_class=residue_class, order=order)
            yield p
        else:
            order += 1
    tally.update(excluded=excluded, bad=bad_primes, residue_class=residue_class, order=order)


def _unique_hasse_candidate(m_e: int, m_twist: int, p: int) -> int | None:
    """The one N in the Hasse interval with m_e | N and m_twist | 2p+2-N, if
    there is exactly one; as m_e | #E and m_twist | #E', gcd(m_e, m_twist) | 2p+2."""
    lo, hi = hasse_interval(p)
    g = math.gcd(m_e, m_twist)
    # N = m_e * t with m_e * t = 2p + 2 (mod m_twist)
    mod = m_twist // g
    t = (2 * p + 2) // g * pow(m_e // g, -1, mod) % mod
    period = m_e * mod
    n = m_e * t
    n += -(-(lo - n) // period) * period  # least candidate >= lo
    if n > hi or n + period <= hi:
        return None
    return n


def count_points(curve: CurveFp) -> tuple[int, int]:
    """(#E(F_p), a_p), exactly, by Shanks-Mestre in O(p^(1/4)) group operations.

    Each x with f = x^3 + a*x + b != 0 gives the point (x*f, f^2) on
    Y^2 = X^3 + a*f^2*X + b*f^3, as (x*f)^3 + a*f^2*(x*f) + b*f^3 = f^4: that
    curve is E for a square f and its twist E' otherwise.  The point's exact
    order comes from a multiple found by baby-step giant-step over the Hasse
    interval.  With M and M' the lcm of the orders on E and E', #E is
    returned once it is the only N in [p+1-2*sqrt(p), p+1+2*sqrt(p)] with
    M | N and M' | 2p+2-N (as #E + #E' = 2p+2); Hasse's bound makes that N
    exact, not probable.  Small primes, bad reduction and the (for p > 229
    impossible) case of MESTRE_MAX_POINTS points without a unique candidate
    go to `count_points_naive`.  Under EDSLAB_TRACE=1 each call writes one
    `elliptic.count_points` span with the path, `mestre` or `naive`, the
    reason for a naive count (`small_p`, `bad_reduction`, `points_exhausted`)
    and the points whose order was found.
    """
    p = curve.p
    with _span("elliptic.count_points", p=p) as record:
        n_points, points = None, 0
        if p < NAIVE_COUNT_BELOW:
            reason = "small_p"
        elif not curve.good:
            reason = "bad_reduction"
        else:
            n_points, points = _mestre_count(curve)
            reason = "points_exhausted" if n_points is None else None
        if reason is not None:
            n_points = count_points_naive(curve)[0]
        record.update(path="mestre" if reason is None else "naive", reason=reason, points=points)
    return n_points, p + 1 - n_points


def _mestre_count(curve: CurveFp) -> tuple[int | None, int]:
    """`count_points`'s search: #E, or None if the points ran out, and the
    number of points whose order it found."""
    p, a, b = curve.p, curve.a, curve.b
    m_e = m_twist = 1
    points = 0
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        if f == 0:
            continue
        pt, a_f = (x * f % p, f * f % p), a * f * f % p
        multiple = multiple_in_hasse(pt, p, a_f)  # not None: pt's curve, E or E', has its order there
        points += 1
        order = order_from_multiple(multiple, lambda k: fp_scalar_mul(k, pt, p, a_f) is None)
        if pow(f, (p - 1) // 2, p) == 1:  # Euler's criterion: f is a square
            m_e = math.lcm(m_e, order)
        else:
            m_twist = math.lcm(m_twist, order)
        n_points = _unique_hasse_candidate(m_e, m_twist, p)
        if n_points is not None:
            return n_points, points
        if points == MESTRE_MAX_POINTS:
            break
    return None, points


def point_order_fp(pt: PointFp, curve: CurveFp, n_points: int) -> int:
    """Exact order of a point in E(F_p), by stripping primes from n_points = #E."""
    if not curve.good:
        raise ValueError(f"bad reduction at {curve.p}")
    if pt is None:
        return 1
    p, a = curve.p, curve.a
    order = order_from_multiple(n_points, lambda k: fp_scalar_mul(k, pt, p, a) is None)
    assert fp_scalar_mul(order, pt, p, a) is None
    return order

