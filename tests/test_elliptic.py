import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest

from edslab import elliptic
from edslab.eds import generate_geometric, height_ratio
from edslab.elliptic import (
    NAIVE_COUNT_BELOW,
    RATIONAL_BASE_MAX_BITS,
    TORSION_SEARCH_BOUND,
    CurveFp,
    CurveQ,
    PointQ,
    count_points,
    count_points_naive,
    fp_scalar_mul,
    hasse_interval,
    is_torsion,
    multiple_in_hasse,
    point_order_fp,
    reduce_point,
    scalar_mul,
    small_multiple,
)
from edslab.ntkernel import is_prime, order_from_multiple, sieve_primes, sqrt_mod_prime
from test_galois_density import CM_CURVES

E = CurveQ(0, 3)
P = PointQ(1, 2, 1)


def add(p, q, curve):
    """Chord-tangent sum of two points, in Jacobian coordinates over Z: the
    independent reference for every n*P and z_n the library reads from the
    division-value recurrence.

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


def multiples(point, curve):
    """P, 2P, 3P, ... without end, one chord-tangent addition per step: the
    reference for the exact z_n that `eds.generate_geometric` gives the
    finder and the verifier."""
    current = point
    while True:
        yield current
        current = add(current, point, curve)


def on_curve_fp(pt, curve):
    """Whether pt (None for O) lies on the curve over F_p."""
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


def fp_add(p1, p2, curve):
    """Affine chord-tangent sum mod p, one inversion per call: the reference
    for the Jacobian `fp_scalar_mul` and the inlined steps of
    `multiple_in_hasse`."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    p = curve.p
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


# (curve, point, gcd(2y, 3x^2 + a*z^4)); the 2P and 3P rows are multiples of
# (0, 2, 1) on (-5, 4), (1, 2, 1) on (0, 3), (1, 1, 1) on (-4, 4),
# (0, 1, 1) on (1, 1), and (-2, 3, 1) and (2, 5, 1) on (0, 17)
ORACLE_FIXTURES = [
    (CurveQ(0, 3), PointQ(1, 2, 1), 1),
    (CurveQ(-4, 4), PointQ(1, 1, 1), 1),
    (CurveQ(1, 1), PointQ(0, 1, 1), 1),
    (CurveQ(1, 1), PointQ(72, 611, 1), 1),  # 3P
    (CurveQ(-5, 4), PointQ(25, -3, 4), 1),  # 2P
    (CurveQ(0, 3), PointQ(-23, -11, 4), 1),  # 2P
    (CurveQ(-4, 4), PointQ(-7, -19, 2), 1),  # 2P
    (CurveQ(1, 1), PointQ(1, -9, 2), 1),  # 2P
    (CurveQ(0, 17), PointQ(-2, 3, 1), 6),
    (CurveQ(0, 17), PointQ(8, -23, 1), 2),  # 2P
    (CurveQ(0, 17), PointQ(19, 522, 5), 3),  # 3P
    (CurveQ(0, 17), PointQ(2, 5, 1), 2),
    (CurveQ(0, 17), PointQ(-64, 59, 5), 2),  # 2P
]


def test_curve_rejects_singular():
    with pytest.raises(ValueError):
        CurveQ(0, 0)
    with pytest.raises(ValueError):
        CurveQ(-3, 2)  # 4*(-27) + 27*4 = 0


def test_point_normalization_rules():
    with pytest.raises(ValueError):
        PointQ(2, 4, 2)
    with pytest.raises(ValueError):
        PointQ(1, 2, -1)
    assert PointQ.infinity().is_infinity


def test_identity_and_inverse():
    assert add(P, PointQ.infinity(), E) == P
    assert add(P, PointQ(P.x, -P.y, P.z), E) == PointQ.infinity()


def test_doubling_fixed_value():
    # lambda = 3/4, x2 = -23/16, y2 = -11/64
    assert add(P, P, E) == PointQ(-23, -11, 4)
    assert scalar_mul(2, P, E) == PointQ(-23, -11, 4)


def test_scalar_mul_matches_repeated_add():
    acc = PointQ.infinity()
    for n in range(1, 7):
        acc = add(acc, P, E)
        assert scalar_mul(n, P, E) == acc
        assert E.contains(acc)


def test_scalar_mul_computes_five_terms_in_its_last_doubling(monkeypatch):
    # 8 terms per step of the ladder to n // 2, then w_(n-2)..w_(n+2) and w_(2n)
    curve, point = CurveQ(-4, 4), PointQ(1, 1, 1)
    expected = list(islice(multiples(point, curve), 160))
    steps, step, block = [], elliptic._ward_step, elliptic._double_block
    monkeypatch.setattr(elliptic, "_ward_step", lambda w, m: steps.append(m) or step(w, m))
    monkeypatch.setattr(elliptic, "_double_block", lambda w, b: steps.extend(range(3 + b, 11 + b)) or block(w, b))
    for n in (1, 2, 3, 89, 160):
        steps.clear()
        assert scalar_mul(n, point, curve) == expected[n - 1]
        assert len(steps) == 8 * len(bin(n // 2)[2:]) + 6, n


def test_multiples_walk_the_multiples_lazily(monkeypatch):
    expected = [scalar_mul(n, P, E) for n in range(1, 13)]
    # one addition per step after P, and none before a step is asked for
    calls, chord_tangent = [], add
    monkeypatch.setitem(globals(), "add", lambda a, b, c: calls.append(1) or chord_tangent(a, b, c))
    walk = multiples(P, E)
    assert next(walk) == P and not calls
    assert list(islice(walk, 11)) == expected[1:]
    assert len(calls) == 11


def test_group_law_axioms_exact():
    # small-coordinate points on y^2 = x^3 - x + 1
    curve = CurveQ(-1, 1)
    pts = [PointQ(0, 1, 1), PointQ(1, 1, 1), PointQ(-1, 1, 1), PointQ(0, -1, 1)]
    for p in pts:
        assert curve.contains(p)
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (rng.choice(pts) for _ in range(3))
        assert add(a, b, curve) == add(b, a, curve)
        assert add(add(a, b, curve), c, curve) == add(a, add(b, c, curve), curve)


def _affine(point):
    return Fraction(point.x, point.z**2), Fraction(point.y, point.z**3)


def _point_from_affine(xa, ya):
    """(x, y, z) with x/z^2 and y/z^3 in lowest terms, as on an integral model."""
    z = math.isqrt(xa.denominator)
    if z * z != xa.denominator:
        raise ValueError(f"denominator {xa.denominator} is not a perfect square")
    yz3 = ya * z**3
    if yz3.denominator != 1:
        raise ValueError("y denominator is not the cube of z")
    return PointQ(xa.numerator, int(yz3), z)


def _fraction_add(p, q, curve):
    """The affine chord-tangent law in `Fraction` arithmetic: the reference
    for the integer Jacobian `add`."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    (x1, y1), (x2, y2) = _affine(p), _affine(q)
    if x1 == x2:
        if y1 == -y2:
            return PointQ.infinity()
        lam = (3 * x1 * x1 + curve.a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return _point_from_affine(x3, lam * (x1 - x3) - y1)


def test_normalization_idempotent():
    q = scalar_mul(3, P, E)
    assert _point_from_affine(*_affine(q)) == q


@pytest.mark.parametrize(
    "curve,point", [(CurveQ(-4, 4), PointQ(1, 1, 1)), (E, P), (CurveQ(0, 17), PointQ(-2, 3, 1))]
)
def test_integer_add_matches_the_fraction_chord_tangent_law(curve, point):
    ref = [PointQ.infinity(), point]
    for _ in range(2, 41):
        ref.append(_fraction_add(ref[-1], point, curve))
    neg = [PointQ(r.x, -r.y, r.z) for r in ref]
    for n in range(1, 41):
        assert scalar_mul(n, point, curve) == ref[n]
        assert add(ref[n], neg[n], curve) == PointQ.infinity()
        assert add(ref[n], ref[n], curve) == _fraction_add(ref[n], ref[n], curve) == scalar_mul(2 * n, point, curve)
    for m, n in ((1, 2), (3, 5), (7, 20), (20, 7), (13, 27)):
        assert add(ref[m], ref[n], curve) == _fraction_add(ref[m], ref[n], curve) == ref[m + n]
        assert add(ref[n], neg[m], curve) == _fraction_add(ref[n], neg[m], curve)
    assert list(islice(multiples(point, curve), 40)) == ref[1:]


@pytest.mark.parametrize(
    "point,message",
    [(PointQ(-3, 1, 3), "denominator 12 is not a perfect square"), (PointQ(-2, 1, 2), "not the cube of z")],
)
def test_integer_add_refuses_a_point_off_the_integral_model(point, message):
    assert not E.contains(point)
    with pytest.raises(ValueError, match=message):
        _fraction_add(point, point, E)
    with pytest.raises(ValueError, match=message):
        add(point, point, E)
    for n in (2, 3):
        with pytest.raises(ValueError):
            scalar_mul(n, point, E)


def test_torsion_detection():
    assert is_torsion(PointQ.infinity(), E) == (True, 1)
    # (x, 0) is 2-torsion: y^2 = x^3 - 1 at (1, 0)
    curve = CurveQ(0, -1)
    assert is_torsion(PointQ(1, 0, 1), curve) == (True, 2)
    assert is_torsion(P, E) == (False, None)  # y^2 = 4 does not divide 243
    # y^2 = 1 divides 176, so the terms w_1..w_12 decide: none is 0
    assert is_torsion(PointQ(1, 1, 1), CurveQ(-4, 4)) == (False, None)


def _full_torsion_walk(point, curve):
    """The chord-tangent reference for is_torsion: the first n <= 16 with
    nP = O, by add, walking past Mazur's bound."""
    if point.is_infinity:
        return True, 1
    current = point
    for n in range(2, 17):
        current = add(current, point, curve)
        if current.is_infinity:
            return True, n
    return False, None


# integral points of every rational torsion order from 2 to 12 but 11 (none
# exists, by Mazur): y^2 = x^3 + 1 for 2, 3 and 6, the others from Tate's
# normal forms at t = 2, moved to an integral short Weierstrass model
TORSION_FIXTURES = [
    (0, 1, -1, 0, 2),
    (0, 1, 0, 1, 3),
    (-2619, 918, -21, -216, 4),
    (-27, 55350, -21, -216, 5),
    (0, 1, 2, 3, 6),
    (-43, 166, -5, -16, 7),
    (-44091, 3304854, -141, -2592, 8),
    (-219, 1654, -13, -48, 9),
    (-58347, 3954150, -213, -2592, 10),
    (-33339627, 73697852646, 3027, -22680, 12),
]


@pytest.mark.parametrize("a,b,x,y,order", TORSION_FIXTURES)
def test_torsion_rules_find_every_rational_order(a, b, x, y, order, monkeypatch):
    # Nagell-Lutz and the first zero of w_n up to Mazur's bound, with no multiple of P formed
    curve, point = CurveQ(a, b), PointQ(x, y, 1)
    assert curve.contains(point) and TORSION_SEARCH_BOUND == 12
    assert _full_torsion_walk(point, curve) == (True, order)
    monkeypatch.setattr(elliptic, "scalar_mul", None)
    assert is_torsion(point, curve) == (True, order)


def test_torsion_early_exit_matches_the_full_walk():
    # P, 2P, 3P for every integral P = (x, y, 1), |x| <= 4, y >= 0, on the
    # curves with |a|, |b| <= 4; the torsion orders met there are 1, 2, 3, 4, 6
    orders = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            curve = CurveQ(a, b)
            for x in range(-4, 5):
                f = x**3 + a * x + b
                y = math.isqrt(max(f, 0))
                if f < 0 or y * y != f:
                    continue
                for k, point in enumerate(islice(multiples(PointQ(x, y, 1), curve), 3), start=1):
                    verdict = is_torsion(point, curve)
                    assert verdict == _full_torsion_walk(point, curve), (a, b, x, k)
                    if verdict[0]:
                        orders.add(verdict[1])
    assert orders == {1, 2, 3, 4, 6}


def test_count_points_fixture():
    curve = CurveFp.from_curve(E, 5)
    n, a_p = count_points(curve)
    assert (n, a_p) == (6, 0)


def test_hasse_window_all_good_primes():
    for p in sieve_primes(200):
        if p == 2 or E.disc % p == 0:
            continue
        curve = CurveFp.from_curve(E, p)
        n, a_p = count_points(curve)
        lo, hi = hasse_interval(p)
        assert lo <= n <= hi and a_p * a_p < 4 * p, (p, n, a_p)


def test_lagrange_and_order_minimality():
    for p in [pr for pr in sieve_primes(200) if pr > 3]:
        curve = CurveFp.from_curve(E, p)
        n, _ = count_points(curve)
        pt = reduce_point(P, E, p)
        order = point_order_fp(pt, curve, n)
        assert n % order == 0
        assert fp_scalar_mul(order, pt, curve.p, curve.a) is None
        for ell in set(
            f for f in range(2, order + 1) if order % f == 0 and all(f % d for d in range(2, f))
        ):
            assert fp_scalar_mul(order // ell, pt, curve.p, curve.a) is not None


def test_doubling_halves_or_keeps_order():
    for p in [pr for pr in sieve_primes(100) if pr > 3]:
        curve = CurveFp.from_curve(E, p)
        n, _ = count_points(curve)
        pt = reduce_point(P, E, p)
        o1 = point_order_fp(pt, curve, n)
        o2 = point_order_fp(fp_scalar_mul(2, pt, curve.p, curve.a), curve, n)
        assert o2 == o1 // math.gcd(2, o1)


def test_reduction_compatible_with_scalar_mul():
    for p in [pr for pr in sieve_primes(100) if pr > 3]:
        curve = CurveFp.from_curve(E, p)
        pt = reduce_point(P, E, p)
        q = P
        for n in range(2, 51):
            q = add(q, P, E)
            if q.z % p == 0:
                assert fp_scalar_mul(n, pt, curve.p, curve.a) is None
            else:
                assert fp_scalar_mul(n, pt, curve.p, curve.a) == reduce_point(q, E, p)


def _affine_scalar_mul(n, pt, curve):
    """n*pt by right-to-left double-and-add of affine points, one inversion
    per `fp_add`: the reference for the Jacobian `fp_scalar_mul`."""
    if n < 0:
        pt = None if pt is None else (pt[0], (-pt[1]) % curve.p)
        n = -n
    result = None
    base = pt
    while n:
        if n & 1:
            result = fp_add(result, base, curve)
        n >>= 1
        if n:
            base = fp_add(base, base, curve)
    return result


def test_jacobian_scalar_mul_matches_the_affine_double_and_add():
    # primes on both sides of NAIVE_COUNT_BELOW; the reduced point, every
    # point with y = 0, and a random point; n in {0, +-1, +-2}, the multiples
    # of ord(pt) and of #E near 0, and random n in +-3p
    rng = random.Random(13)
    primes = [p for p in sieve_primes(2 * NAIVE_COUNT_BELOW) if p > 2]
    assert primes[0] < NAIVE_COUNT_BELOW < primes[-1]
    two_torsion = 0
    for curve, point in [(E, P), *CM_CURVES]:
        for p in primes:
            if curve.disc % p == 0 or point.z % p == 0:
                continue
            cfp = CurveFp.from_curve(curve, p)
            n_points, _ = count_points_naive(cfp)
            roots = [(x, 0) for x in range(p) if on_curve_fp((x, 0), cfp)]
            two_torsion += len(roots)
            fx = 0
            while pow(fx, (p - 1) // 2, p) != 1:
                x = rng.randrange(p)
                fx = (x**3 + cfp.a * x + cfp.b) % p
            for pt in [reduce_point(point, curve, p), *roots, (x, sqrt_mod_prime(fx, p))]:
                order = order_from_multiple(n_points, lambda k: _affine_scalar_mul(k, pt, cfp) is None)
                ns = [0, 1, -1, 2, -2, n_points, -n_points, n_points + 1]
                ns += [k * order + e for k in (1, 2, -3) for e in (-1, 0, 1)]
                ns += [rng.randrange(-3 * p, 3 * p + 1) for _ in range(8)]
                for n in ns:
                    assert fp_scalar_mul(n, pt, p, cfp.a) == _affine_scalar_mul(n, pt, cfp), (curve, p, pt, n)
            assert fp_scalar_mul(5, None, cfp.p, cfp.a) is None
    assert two_torsion > 0


def _multiple_in_hasse_from_lo(pt, curve, d=1):
    """`multiple_in_hasse` with its giant windows laid from lo, [lo, lo+2s],
    [lo+2s+1, lo+4s+1], ..., and the first giant point (lo+s)*base: the
    oracle for the windows anchored on multiples of the stride."""
    p = curve.p
    w = math.isqrt(4 * p)
    lo, hi = -(-(p + 1 - w) // d), (p + 1 + w) // d
    if lo > hi:
        return None
    s = math.isqrt(hi - lo) + 1
    base = _affine_scalar_mul(d, pt, curve)
    baby = {}
    prev, cur = None, base
    order = None
    for j in range(1, s + 2):
        if cur is None:
            order = j
            break
        hit = baby.get(cur[0])
        if hit is not None:
            order = j + hit[0]
            break
        if j <= s:
            baby[cur[0]] = (j, cur[1])
            prev, cur = cur, fp_add(cur, base, curve)
    if order is not None:
        return order * d if -(-lo // order) * order <= hi else None
    stride = fp_add(prev, cur, curve)
    c = lo + s
    r = _affine_scalar_mul(c, base, curve)
    while c - s <= hi:
        if r is None:
            k = c
        else:
            hit = baby.get(r[0])
            k = None if hit is None else c - hit[0] if hit[1] == r[1] else c + hit[0]
        if k is not None:
            return k * d if k <= hi else None
        c += 2 * s + 1
        if c - s <= hi:
            r = fp_add(r, stride, curve)
    return None


def test_multiple_in_hasse_matches_the_windows_laid_from_lo():
    for curve, point in [(E, P), *CM_CURVES]:
        for p in sieve_primes(2000):
            if p == 2 or curve.disc % p == 0 or point.z % p == 0:
                continue
            cfp = CurveFp.from_curve(curve, p)
            pt = reduce_point(point, curve, p)
            for d in (1, 2, 3, 5, 7, 13):
                got = multiple_in_hasse(fp_scalar_mul(d, pt, cfp.p, cfp.a), p, cfp.a, d)
                assert got == _multiple_in_hasse_from_lo(pt, cfp, d), (curve, p, d)


@pytest.mark.parametrize(
    "p,d,expected",
    [
        (41, 1, 42),  # ord = 14; windows [28, 38], [39, 49] and lo = 30: 28 is skipped
        (97, 2, None),  # ord(2P) = 39; windows [39, 49], [50, 60] and lo = 40: 39 is skipped
    ],
)
def test_multiple_in_hasse_skips_a_kill_below_lo(p, d, expected):
    cfp = CurveFp.from_curve(E, p)
    pt = reduce_point(P, E, p)
    got = multiple_in_hasse(fp_scalar_mul(d, pt, cfp.p, cfp.a), p, cfp.a, d)
    assert got == expected == _multiple_in_hasse_from_lo(pt, cfp, d)


def test_small_multiple_refuses_a_large_rational_base(monkeypatch):
    # q = 1009 on (-4, 4), (1, 1, 1): q*P has a 142,000-digit denominator
    # and takes seconds to form; the size predicted from 2P refuses it first
    curve, point = CurveQ(-4, 4), PointQ(1, 1, 1)
    assert small_multiple(13, point, curve) == scalar_mul(13, point, curve)
    monkeypatch.setattr(elliptic, "scalar_mul", _no_multiple)
    assert small_multiple(1009, point, curve) is None


# (-2, 3, 1) on (0, 17), whose companion gcd is 6; 2P of (1, 2, 1) on (0, 3),
# with z = 4; and torsion points of orders 2, 3, 6 and 7
SCALAR_MUL_FIXTURES = [
    (CurveQ(0, 17), PointQ(-2, 3, 1)),
    (E, PointQ(-23, -11, 4)),
    (CurveQ(0, 1), PointQ(-1, 0, 1)),
    (CurveQ(0, 1), PointQ(0, 1, 1)),
    (CurveQ(0, 1), PointQ(2, 3, 1)),
    (CurveQ(-43, 166), PointQ(3, 8, 1)),
]


@pytest.mark.parametrize("curve,point", SCALAR_MUL_FIXTURES)
def test_scalar_mul_matches_the_chord_tangent_multiples(curve, point):
    # every n from 0 to 40; a negative n is refused by the ladder, not answered
    ref = [PointQ.infinity(), *islice(multiples(point, curve), 40)]
    for n in range(41):
        assert scalar_mul(n, point, curve) == ref[n], n
    if point.y != 0:  # a point with y = 0 is its own odd multiples and reads no ladder
        for n in range(-20, 0):
            with pytest.raises(ValueError, match="^n must be >= 0$"):
                scalar_mul(n, point, curve)


def test_small_multiple_matches_the_chord_tangent_walk():
    # q*P for every prime q <= 67, or None where the size predicted from the
    # chord-tangent 2P passes the bound; the torsion points, the one with
    # y = 0 among them, are never refused
    kept = refused = 0
    for curve, point in [*(fixture[:2] for fixture in ORACLE_FIXTURES), *SCALAR_MUL_FIXTURES]:
        ref = [PointQ.infinity(), *islice(multiples(point, curve), 67)]
        for q in filter(is_prime, range(68)):
            if q * q * ref[2].z.bit_length() > 4 * RATIONAL_BASE_MAX_BITS:
                assert small_multiple(q, point, curve) is None, (point, q)
                refused += 1
            else:
                assert small_multiple(q, point, curve) == ref[q], (point, q)
                kept += 1
    assert kept > 0 and refused > 0, (kept, refused)


def test_point_arithmetic_loads_no_sequence_module():
    # the division-value recurrence lives in elliptic: the torsion rules and
    # q*P over Q run without edslab.eds
    probe = (
        "import sys\n"
        "from edslab.elliptic import CurveQ, PointQ, is_torsion, scalar_mul, small_multiple\n"
        "curve, point = CurveQ(0, 1), PointQ(2, 3, 1)\n"
        "assert is_torsion(point, curve) == (True, 6)\n"
        "assert small_multiple(5, point, curve) == scalar_mul(5, point, curve) == PointQ(2, -3, 1)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'edslab'))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["edslab", "edslab.elliptic", "edslab.ntkernel"]


def _no_multiple(*args):
    raise AssertionError("q*P was formed over Q")


def test_point_order_rejects_bad_reduction():
    curve = CurveFp.from_curve(E, 3)  # disc = 243
    assert not curve.good
    n_points = count_points(curve)[0]
    with pytest.raises(ValueError, match="^bad reduction at 3$"):
        point_order_fp((1, 2), curve, n_points)


def test_height_estimate_positive_and_converging():
    seq = generate_geometric(E, P, 40)
    c20, c40 = (height_ratio(n, seq.term(n)) for n in (20, 40))
    assert c40 > 0
    assert abs(c40 - c20) < 0.05


def test_digit_growth_roughly_quadratic():
    # slope of log(log z_n) against log n approaches 2
    seq = generate_geometric(E, P, 48)
    n1, n2 = 24, 48
    zlogs = {n: height_ratio(n, seq.term(n)) * n * n for n in (n1, n2)}
    slope = (math.log(zlogs[n2]) - math.log(zlogs[n1])) / (math.log(n2) - math.log(n1))
    assert 1.8 < slope < 2.2


def test_fp_add_matches_table():
    curve = CurveFp.from_curve(E, 5)
    pts = [None] + [
        (x, y) for x in range(5) for y in range(5) if on_curve_fp((x, y), curve)
    ]
    assert len(pts) == 6
    for a in pts:
        assert fp_add(a, None, curve) == a
        for b in pts:
            assert on_curve_fp(fp_add(a, b, curve), curve)
