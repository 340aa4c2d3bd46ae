"""Exact elliptic curve arithmetic over Q and over prime fields F_p.

Rational points are kept in the normalized shape (x/z^2, y/z^3) with
gcd(x, y, z) = 1 and z > 0, so the z-coordinate of nP is exactly the
denominator term of the associated divisibility sequence.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .ntkernel import invmod, is_prime, order_from_multiple, sqrt_mod_prime

# uniform bound on the order of rational torsion points, with margin
TORSION_SEARCH_BOUND = 16
# largest denominator, in bits, of the rational q*P `small_multiple` forms, as
# estimated from 2P
RATIONAL_BASE_MAX_BITS = 2048


class BadReductionError(ValueError):
    """Raised when an operation requires good reduction at p and lacks it."""


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

    def contains(self, point: "PointQ") -> bool:
        if point.is_infinity:
            return True
        x, y, z = point.x, point.y, point.z
        return y * y == x**3 + self.a * x * z**4 + self.b * z**6

    def __str__(self):
        return f"y^2 = x^3 + {self.a}*x + {self.b}"


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

    def __neg__(self) -> "PointQ":
        if self.is_infinity:
            return self
        return PointQ(self.x, -self.y, self.z)

    def __str__(self):
        return "O" if self.is_infinity else f"({self.x}:{self.y}:{self.z})"


def add(p: PointQ, q: PointQ, curve: CurveQ) -> PointQ:
    """Chord-tangent sum of two points, in Jacobian coordinates over Z.

    Clearing the slope's denominator z1*e1 = z2*e2 from the affine formulas
    gives (x3/z3^2, y3/z3^3).  One renormalization follows: u^2 = gcd(x3,
    z3^2) leaves x/z^2 in lowest terms, and y3/u^3 must be an integer; both
    hold on an integral model, otherwise ValueError.
    """
    if p.is_infinity or q.is_infinity:
        return q if p.is_infinity else p
    z1s, z2s = p.z * p.z, q.z * q.z
    u1, u2 = p.x * z2s, q.x * z1s
    s1, s2 = p.y * z2s * q.z, q.y * z1s * p.z
    if u1 == u2:
        if s1 == -s2 or p.y == 0:  # p.y = 0 != q.y only off the curve: a vertical tangent
            return PointQ.infinity()
        q, num, e1, e2 = p, 3 * p.x * p.x + curve.a * z1s * z1s, 2 * p.y, 2 * p.y  # tangent, x2 = x1
    else:
        num, e1, e2 = s2 - s1, q.z * (u2 - u1), p.z * (u2 - u1)
    x1e = p.x * e1 * e1
    x3 = num * num - x1e - q.x * e2 * e2
    y3 = num * (x1e - x3) - p.y * e1**3
    z3 = p.z * e1
    g = math.gcd(x3, z3 * z3)
    u = math.isqrt(g) if z3 > 0 else -math.isqrt(g)
    if u * u != g:
        raise ValueError(f"denominator {z3 * z3 // g} is not a perfect square")
    y, rem = divmod(y3, u * g)
    if rem:
        raise ValueError("y denominator is not the cube of z")
    return PointQ(x3 // g, y, z3 // u)


def scalar_mul(n: int, p: PointQ, curve: CurveQ) -> PointQ:
    """n*P by double-and-add; n may be any integer."""
    if n < 0:
        return scalar_mul(-n, -p, curve)
    result = PointQ.infinity()
    base = p
    while n:
        if n & 1:
            result = add(result, base, curve)
        n >>= 1
        if n:
            base = add(base, base, curve)
    return result


def multiples(point: PointQ, curve: CurveQ) -> Iterator[PointQ]:
    """P, 2P, 3P, ... without end, one chord-tangent addition per step."""
    current = point
    while True:
        yield current
        current = add(current, point, curve)


def is_torsion(p: PointQ, curve: CurveQ) -> tuple[bool, int | None]:
    """Detect torsion by checking nP = O for n <= `TORSION_SEARCH_BOUND`.

    Rational torsion orders are at most 12; the bound 16 leaves margin.
    On this integral model a rational torsion point has integer coordinates
    (Nagell-Lutz; Silverman, AEC, Cor. VIII.7.2), so the walk stops at the
    first multiple with z != 1.
    """
    for n, current in enumerate(multiples(p, curve), start=1):
        if current.is_infinity:
            return True, n
        if n >= TORSION_SEARCH_BOUND or current.z != 1:
            return False, None


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

    def contains(self, pt: PointFp) -> bool:
        if pt is None:
            return True
        x, y = pt
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0


def reduce_point(p: PointQ, curve: CurveQ, prime: int) -> PointFp:
    """Reduce a rational point mod prime; needs prime ∤ z."""
    if p.is_infinity:
        return None
    if p.z % prime == 0:
        return None  # reduces into the identity
    zi = invmod(p.z, prime)
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


# below this prime the O(p) sum beats baby-step giant-step
NAIVE_COUNT_BELOW = 400
# points tried before the fallback; for p > 229 E or its twist has a point
# whose order alone pins #E down (Mestre), so only small primes can run out
MESTRE_MAX_POINTS = 16


def multiple_in_hasse(base: PointFp, p: int, a: int, d: int = 1) -> int | None:
    """Some m > 0 with d | m and (m/d)*base = O, found by baby-step giant-step
    over the multiples of d in the Hasse interval [p+1-w, p+1+w], w =
    isqrt(4p), on y^2 = x^3 + a*x + b over F_p; None exactly when no
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
    w = math.isqrt(4 * p)
    lo, hi = -(-(p + 1 - w) // d), (p + 1 + w) // d
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
    while c - s <= hi:
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
    return None


def small_multiple(q: int, point: PointQ, curve: CurveQ) -> PointQ | None:
    """q*P over Q, the base `q_divides_order` reduces at every prime, or None
    when its denominator would pass RATIONAL_BASE_MAX_BITS bits.

    Heights grow quadratically, so that size is about q^2/4 times the bits
    of z(2P).  Reducing q*P mod p costs what multiplying P mod p by q does
    when z(q*P) has 2,500-3,500 bits, a third of that at the 100-300 bits
    of q <= 13 on small points, and 11 times as much at q = 307, where
    forming q*P also takes about a second.  The estimate from 2P is low by
    up to half on small points, so the bound sits below that crossover.
    """
    double = add(point, point, curve)
    if q * q * double.z.bit_length() > 4 * RATIONAL_BASE_MAX_BITS:
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


def _unique_hasse_candidate(m_e: int, m_twist: int, p: int) -> int | None:
    """The one N in the Hasse interval with m_e | N and m_twist | 2p+2-N, if
    there is exactly one."""
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    g = math.gcd(m_e, m_twist)
    if (2 * p + 2) % g:
        return None
    # N = m_e * t with m_e * t = 2p + 2 (mod m_twist)
    mod = m_twist // g
    t = (2 * p + 2) // g * invmod(m_e // g, mod) % mod
    period = m_e * mod
    n = m_e * t
    n += -(-(lo - n) // period) * period  # least candidate >= lo
    if n > hi or n + period <= hi:
        return None
    return n


def count_points(curve: CurveFp) -> tuple[int, int]:
    """(#E(F_p), a_p), exactly, by Shanks-Mestre in O(p^(1/4)) group operations.

    Points are drawn at x = 0, 1, 2, ...: a square f(x) gives a point on E,
    a non-square one gives the point (d*x, d*sqrt(d*f(x))) on the quadratic
    twist E': Y^2 = X^3 + a*d^2*X + b*d^3, d the least non-residue.  Each
    point's exact order comes from a multiple found by baby-step giant-step
    over the Hasse interval.  With M and M' the lcm of the orders on E and
    E', #E is returned once it is the only N in [p+1-2*sqrt(p), p+1+2*sqrt(p)]
    with M | N and M' | 2p+2-N (as #E + #E' = 2p+2); Hasse's bound makes that
    N exact, not probable.  Small primes, bad reduction and the (for p > 229
    impossible) case of MESTRE_MAX_POINTS points without a unique candidate
    go to `count_points_naive`.
    """
    p, a, b = curve.p, curve.a, curve.b
    if p < NAIVE_COUNT_BELOW or not curve.good:
        return count_points_naive(curve)
    half = (p - 1) // 2
    d = 2
    while pow(d, half, p) == 1:
        d += 1
    twist = CurveFp(p, a * d * d % p, b * d * d * d % p, True)
    m_e = m_twist = 1
    points = 0
    for x in range(p):
        fx = (x * x * x + a * x + b) % p
        if fx == 0:
            continue
        if pow(fx, half, p) == 1:
            pt, on = (x, sqrt_mod_prime(fx, p)), curve
        else:
            pt, on = (d * x % p, d * sqrt_mod_prime(d * fx, p) % p), twist
        multiple = multiple_in_hasse(pt, p, on.a)
        if multiple is None:
            break
        order = order_from_multiple(multiple, lambda k: fp_scalar_mul(k, pt, p, on.a) is None)
        if on is curve:
            m_e = math.lcm(m_e, order)
        else:
            m_twist = math.lcm(m_twist, order)
        n_points = _unique_hasse_candidate(m_e, m_twist, p)
        if n_points is not None:
            return n_points, p + 1 - n_points
        points += 1
        if points == MESTRE_MAX_POINTS:
            break
    return count_points_naive(curve)


def hasse_window(n_points: int, p: int) -> bool:
    a_p = p + 1 - n_points
    return a_p * a_p < 4 * p


def point_order_fp(pt: PointFp, curve: CurveFp, n_points: int | None = None) -> int:
    """Exact order of a point in E(F_p), by stripping primes from #E."""
    if not curve.good:
        raise BadReductionError(f"bad reduction at {curve.p}")
    if pt is None:
        return 1
    if n_points is None:
        n_points, _ = count_points(curve)
    p, a = curve.p, curve.a
    order = order_from_multiple(n_points, lambda k: fp_scalar_mul(k, pt, p, a) is None)
    assert fp_scalar_mul(order, pt, p, a) is None
    return order


# ---------------------------------------------------------------------------
# big-integer logarithms


def log_bigint(n: int) -> float:
    """Natural log of a positive big integer without float overflow."""
    if n <= 0:
        raise ValueError("need a positive integer")
    bl = n.bit_length()
    if bl <= 512:
        return math.log(n)
    shift = bl - 64
    return math.log(n >> shift) + shift * math.log(2)


# ---------------------------------------------------------------------------
# text ingestion


def parse_curve(text: str) -> CurveQ:
    """Parse `curve A B` with arbitrary-precision decimal integers."""
    parts = text.split()
    if len(parts) != 3 or parts[0] != "curve":
        raise ValueError(f"expected 'curve A B', got {text!r}")
    return CurveQ(int(parts[1]), int(parts[2]))


def parse_point(text: str) -> PointQ:
    """Parse `point x y z` with arbitrary-precision decimal integers."""
    parts = text.split()
    if len(parts) != 4 or parts[0] != "point":
        raise ValueError(f"expected 'point x y z', got {text!r}")
    return PointQ(int(parts[1]), int(parts[2]), int(parts[3]))
