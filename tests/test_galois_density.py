import builtins
import json
import math
import os
import random
import sys
import tracemalloc
from itertools import product

import pytest

from edslab import elliptic, galois_density, ntkernel
from edslab.cli import main
from edslab.elliptic import (
    NAIVE_COUNT_BELOW,
    CurveFp,
    CurveQ,
    PointQ,
    count_points,
    fp_scalar_mul,
    multiple_in_hasse,
    point_order_fp,
    q_divides_order,
    reduce_point,
    scalar_mul,
    small_multiple,
)
from edslab.galois_density import (
    _rank,
    affine_witness,
    conjugacy_type_count,
    count_affine,
    count_gl2,
    empirical_density,
    gl2_histogram,
    gl2_order,
)
from edslab.ntkernel import sieve_primes

E = CurveQ(0, 3)
P = PointQ(1, 2, 1)


def _trace_det_cell(q: int, a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Every J = (m11, m12, m21, m22) over F_q with tr(J) = a and det(J) = b,
    from the q^3 matrices with trace a: the reference for the closed forms."""
    return [
        (m11, m12, m21, (a - m11) % q)
        for m11, m12, m21 in product(range(q), repeat=3)
        if (m11 * (a - m11) - m12 * m21 - b) % q == 0
    ]


def _affine_rank_sum(q: int, a: int, b: int) -> int:
    """q^2 - q^rank(J - I) summed over the (a, b) cell: the affine count."""
    return sum(q * q - q ** _rank(((j[0] - 1, j[1]), (j[2], j[3] - 1)), q) for j in _trace_det_cell(q, a, b))


def test_gl2_order():
    assert gl2_order(3) == 48
    assert gl2_order(5) == 480


def test_count_gl2_fixture():
    report = count_gl2(3, 0, 2)
    assert report.numerator == 12
    assert report.denominator == 48
    assert report.delta == 0.25


def test_count_gl2_rejects_zero_determinant():
    with pytest.raises(ValueError):
        count_gl2(5, 1, 0)
    with pytest.raises(ValueError):
        count_gl2(4, 1, 1)
    # no enumeration cap: at q = 37 a double root, split and irreducible cell
    cells = [(2, 1), (1, 1), (0, 18)]
    counts = [count_gl2(37, a, b).numerator for a, b in cells]
    assert counts == [len(_trace_det_cell(37, a, b)) for a, b in cells]
    assert sorted(counts) == [37 * 37 - 37, 37 * 37, 37 * 37 + 37]


def test_histogram_partitions_group():
    for q in (2, 3, 5, 7):
        hist = gl2_histogram(q)
        assert sum(hist.values()) == gl2_order(q)
        for (a, b), count in hist.items():
            assert count == conjugacy_type_count(q, a, b)
            assert count_gl2(q, a, b).numerator == count


def test_positivity_small_q():
    for q in (3, 5, 7):
        for a in range(q):
            for b in range(1, q):
                assert count_gl2(q, a, b).delta > 0


def test_affine_fixture_positive():
    report = count_affine(5, 3, 2)
    assert report.denominator == 480 * 25
    assert report.delta > 0


def test_affine_witness_structure():
    for q in (3, 5, 7):
        for a in range(q):
            if (a - 1) % q == 0:
                continue
            j, u, outside = affine_witness(q, a)
            assert (j[0] + j[3]) % q == a % q
            assert (j[0] * j[3] - j[1] * j[2]) % q == (a - 1) % q
            assert outside  # the image is {(x, 0)} and u = (1, 1)


def test_affine_counts_witness():
    # the witness pair contributes, so the count is at least 1 when b = a-1
    for q in (3, 5):
        for a in range(q):
            b = (a - 1) % q
            if b == 0:
                continue
            assert count_affine(q, a, b).numerator >= 1


def test_affine_count_matches_image_enumeration():
    # reference: enumerate Im(J - I) as a set for every J of the class
    for q in (3, 5, 7):
        for a in range(q):
            for b in range(1, q):
                count = 0
                for m11 in range(q):
                    for m12 in range(q):
                        for m21 in range(q):
                            m22 = (a - m11) % q
                            if (m11 * m22 - m12 * m21) % q != b:
                                continue
                            image = {
                                (((m11 - 1) * s + m12 * t) % q, (m21 * s + (m22 - 1) * t) % q)
                                for s in range(q)
                                for t in range(q)
                            }
                            count += q * q - len(image)
                assert count_affine(q, a, b).numerator == count


def test_affine_count_matches_the_rank_sum_on_every_cell():
    # the closed form against q^2 - q^rank(J - I) summed over the cell, for
    # every prime q <= 13 and every (a, b != 0), q = 2 included
    for q in (2, 3, 5, 7, 11, 13):
        for a in range(q):
            for b in range(1, q):
                assert count_affine(q, a, b).numerator == _affine_rank_sum(q, a, b), (q, a, b)


def test_density_empirical_past_the_former_cap(capsys):
    # the affine count came from an enumeration capped at q = 13, so q = 17 exited 2
    argv = ["density", "empirical", "--curve", "-4", "4", "--point", "1", "1", "1", "--q", "17"]
    assert main([*argv, "--x", "2000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["numerator"] == _affine_rank_sum(17, 3, 2) > 0
    assert payload["denominator"] == gl2_order(17) * 17 * 17


CM_CURVES = [
    (CurveQ(0, 17), PointQ(-2, 3, 1)),  # j = 0
    (CurveQ(-2, 0), PointQ(2, 2, 1)),  # j = 1728
]


def test_order_test_matches_the_point_order_on_a_seeded_sweep():
    # q | ord(P mod p) from the rational base q*P against point_order_fp,
    # over every good p < 3 * 10^4 and q in {3, 5, 7, 11, 13}: over 10^5
    # (point, q, p) triples, and at one p in six from q*(P mod p) too.  The
    # points: both CM fixtures, among them the gcd-path point (0, 17),
    # (-2, 3, 1); (0, 1) on y^2 = x^3 + 1, of order 3, so 3*P = O over Q and
    # q = 3 holds at every prime; and seeded multiples of the CM points and
    # of two more points
    rng = random.Random(20161)
    points = [*CM_CURVES, (CurveQ(0, 1), PointQ(0, 1, 1))]
    for curve, point in [*CM_CURVES, (CurveQ(0, 3), PointQ(1, 2, 1)), (CurveQ(-4, 4), PointQ(1, 1, 1))]:
        points.append((curve, scalar_mul(rng.randint(2, 4), point, curve)))
    primes = [p for p in sieve_primes(30_000) if p > 2]
    triples = hits = base_at_infinity = 0
    for curve, point in points:
        q_points = {q: small_multiple(q, point, curve) for q in (3, 5, 7, 11, 13)}
        for p in primes:
            if curve.disc % p == 0 or point.z % p == 0:
                continue
            cfp = CurveFp.from_curve(curve, p)
            order = point_order_fp(reduce_point(point, curve, p), cfp)
            for q, q_point in q_points.items():
                if q == p:
                    continue
                expected = order % q == 0
                assert q_divides_order(curve, point, q_point, p, q) == expected, (curve, point, q, p)
                if p % 7 == 1:
                    assert q_divides_order(curve, point, None, p, q) == expected, (curve, point, q, p)
                triples += 1
                hits += expected
                base_at_infinity += q_point.z % p == 0
    assert triples > 100_000 and hits > 10_000
    assert base_at_infinity > len(primes)  # every p at 3*(0, 1) = O, and primes of z(q*P)


def test_scan_predicate_matches_point_count_and_order():
    # primes on both sides of NAIVE_COUNT_BELOW, every q and every trace class
    primes = [p for p in sieve_primes(3 * NAIVE_COUNT_BELOW) if p > 2]
    assert primes[0] < NAIVE_COUNT_BELOW < primes[-1]
    for curve, point in CM_CURVES:
        for p in primes:
            if curve.disc % p == 0:
                continue
            cfp = CurveFp.from_curve(curve, p)
            _, trace = count_points(cfp)
            order = point_order_fp(reduce_point(point, curve, p), cfp)
            for q in (3, 5, 7, 11, 13):
                if q == p:
                    continue
                divides = q_divides_order(curve, point, small_multiple(q, point, curve), p, q)
                for a in range(q):
                    b = (a - 1) % q
                    if b:
                        expected = p % q == b and trace % q == a and order % q == 0
                        assert (p % q == b and divides) == expected, (curve, q, a, p)


def test_scan_predicate_when_the_baby_steps_reach_the_identity():
    # ord(P mod p) <= the number of baby steps: the multiple is the order itself
    for (curve, point), p, q in ((CM_CURVES[0], 181, 5), (CM_CURVES[0], 673, 7), (CM_CURVES[1], 79, 5)):
        cfp = CurveFp.from_curve(curve, p)
        pt = reduce_point(point, curve, p)
        assert multiple_in_hasse(pt, p, cfp.a) == point_order_fp(pt, cfp) == q
        assert q_divides_order(curve, point, small_multiple(q, point, curve), p, q)
        assert not q_divides_order(curve, point, small_multiple(3, point, curve), p, 3)


def test_multiple_in_hasse_searches_only_the_multiples_of_d():
    # None iff no multiple of lcm(d, ord P) lies in the Hasse interval;
    # otherwise some m with d | m and m*P = O
    no_multiple_of_d = 0
    for curve, point in [(E, P), *CM_CURVES]:
        for p in sieve_primes(1200):
            if p == 2 or curve.disc % p == 0 or point.z % p == 0:
                continue
            cfp = CurveFp.from_curve(curve, p)
            pt = reduce_point(point, curve, p)
            order = point_order_fp(pt, cfp)
            w = math.isqrt(4 * p)
            for d in (1, 2, 3, 5, 7, 13):
                m = multiple_in_hasse(fp_scalar_mul(d, pt, cfp.p, cfp.a), p, cfp.a, d)
                step = math.lcm(d, order)
                assert (m is None) == ((p + 1 + w) // step * step < p + 1 - w), (curve, p, d)
                if m is not None:
                    assert m % d == 0 and fp_scalar_mul(m, pt, cfp.p, cfp.a) is None, (curve, p, d)
                no_multiple_of_d += (p + 1 + w) // d * d < p + 1 - w
    assert no_multiple_of_d > 0  # e.g. d = 13 at p = 3 and 5


def test_scan_searches_only_the_multiples_of_q(monkeypatch):
    # one search per prime of the residue class, over the multiples of q,
    # from q*P over Q formed once.  The search over the whole Hasse interval
    # (d = 1) takes 731 affine additions on this scan, the search over the
    # multiples of q 271.  Each is one inversion pow(., -1, p), except one
    # base of order 2, whose double is O.  Besides them, each prime takes at
    # most 2 scalar multiples mod p: the first giant point and the q-free
    # part of the multiple.
    searches, muls, rational, inversions = [], [], [], []
    search, mul, rational_mul = elliptic.multiple_in_hasse, elliptic.fp_scalar_mul, elliptic.scalar_mul
    in_mul = []

    def counting_mul(*args):
        muls.append(1)
        in_mul.append(1)
        try:
            return mul(*args)
        finally:
            in_mul.pop()

    def counting_pow(base, exp, mod=None):
        if exp == -1 and not in_mul:
            inversions.append(1)
        return builtins.pow(base, exp, mod)

    monkeypatch.setattr(
        elliptic, "multiple_in_hasse", lambda *args: searches.append(args[3]) or search(*args)
    )
    monkeypatch.setattr(elliptic, "fp_scalar_mul", counting_mul)
    monkeypatch.setattr(elliptic, "scalar_mul", lambda *args: rational.append(args[0]) or rational_mul(*args))
    monkeypatch.setattr(elliptic, "pow", counting_pow, raising=False)
    scan = empirical_density(E, P, 13, 3, 4000).empirical
    assert (scan.hits, scan.scanned) == (4, 547)
    in_class = [p for p in sieve_primes(4000) if p % 13 == 2 and p != 2 and E.disc % p]
    assert searches == [13] * len(in_class)
    assert rational == [13]
    assert len(inversions) == 270
    assert len(muls) <= 2 * len(in_class)


def test_empirical_scan_counts_no_points(monkeypatch):
    expected = empirical_density(E, P, 3, 3, 3000).empirical
    assert expected.scanned > 64 and expected.hits > 0

    def refuse(*args, **kwargs):
        raise AssertionError("the scan counted points")

    for name in ("count_points", "count_points_naive", "point_order_fp"):
        monkeypatch.setattr(elliptic, name, refuse)
        monkeypatch.setattr(galois_density, name, refuse, raising=False)
    for jobs in (1, 2):
        scan = empirical_density(E, P, 3, 3, 3000, jobs=jobs).empirical
        assert (scan.hits, scan.scanned) == (expected.hits, expected.scanned)


class _InlinePool:
    """multiprocessing.Pool's map, run in this process."""

    def __init__(self, jobs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, chunks):
        return list(map(func, chunks))


def test_empirical_scan_workers_sieve_disjoint_ranges(monkeypatch):
    # each of the jobs workers sieves and scans its own range of [1, x]; the
    # ranges cover it once, and the tallies are the single worker's
    import multiprocessing

    expected = empirical_density(E, P, 5, 3, 3000, exclusions=(11,)).empirical
    ranges = []
    stream = galois_density.iter_primes
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(
        galois_density, "iter_primes", lambda stop, start: ranges.append((start, stop)) or stream(stop, start)
    )
    for jobs in (2, 3, 4):
        ranges.clear()
        scan = empirical_density(E, P, 5, 3, 3000, exclusions=(11,), jobs=jobs).empirical
        assert (scan.hits, scan.scanned) == (expected.hits, expected.scanned)
        assert ranges[0][0] == 1 and ranges[-1][1] == 3000 and len(ranges) == jobs
        assert all(start == stop + 1 for (_, stop), (start, _) in zip(ranges, ranges[1:]))


def test_empirical_scan_checks_the_sieve_limit_before_any_worker(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(ntkernel, "MAX_SIEVE_LIMIT", 1000)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(ValueError, match="prime bound 1001 exceeds the sieve limit 1000"):
        empirical_density(E, P, 5, 3, 1001, jobs=2)


@pytest.mark.parametrize("point", [PointQ(1, 3, 1), PointQ(3, 2, 1)], ids=["1,3,1", "3,2,1"])
def test_empirical_density_refuses_a_point_off_the_curve(point):
    # these reported 9 and 14 hits of 300 primes, about no point on the curve
    with pytest.raises(ValueError, match="^point is not on the curve$"):
        empirical_density(CurveQ(-4, 4), point, 5, 2, 2000)


def test_empirical_scan_fixture():
    report = empirical_density(E, P, 3, 3, 3000)
    assert report.b == 2
    scan = report.empirical
    assert scan is not None
    assert scan.scanned > 300
    assert scan.hits > 0
    assert 0 < scan.frequency < 1
    # deterministic rerun
    again = empirical_density(E, P, 3, 3, 3000)
    assert again.empirical.hits == scan.hits
    assert again.empirical.scanned == scan.scanned


def test_empirical_hits_verified_independently():
    from edslab.elliptic import CurveFp, count_points, point_order_fp, reduce_point
    from edslab.ntkernel import sieve_primes

    q, a, x = 5, 3, 2000
    report = empirical_density(E, P, q, a, x)
    recount = 0
    for p in sieve_primes(x):
        if p == 2 or p == q or E.disc % p == 0:
            continue
        if p % q != (a - 1) % q:
            continue
        cfp = CurveFp.from_curve(E, p)
        n_points, trace = count_points(cfp)
        if trace % q != a % q:
            continue
        order = point_order_fp(reduce_point(P, E, p), cfp, n_points)
        if order % q == 0:
            recount += 1
    assert report.empirical.hits == recount


def test_empirical_scan_streams_the_primes(monkeypatch):
    # the primes come from the segmented sieve, one 65,536-mark segment at a
    # time: the scan's peak is far below the size of the list of the 78,498
    # primes below 10^6.  The order test is stubbed out: it holds no primes,
    # and traced it takes 30 s
    monkeypatch.setattr(galois_density, "q_divides_order", lambda *args: False)
    tracemalloc.start()
    try:
        scan = empirical_density(E, P, 13, 3, 10**6).empirical
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    listed = sieve_primes(10**6)
    assert scan.scanned == len(listed) - 3  # all but 2, q and 3, which divides disc
    assert peak * 8 < sys.getsizeof(listed) + sum(map(sys.getsizeof, listed)), peak


def test_empirical_rejects_a_equal_one():
    with pytest.raises(ValueError):
        empirical_density(E, P, 5, 1, 100)


def test_report_json_shape():
    report = count_gl2(3, 0, 2)
    payload = report.to_json_dict()
    assert payload == {
        "q": 3,
        "a": 0,
        "b": 2,
        "numerator": 12,
        "denominator": 48,
        "delta_num": 1,
        "delta_den": 4,
    }
    emp = empirical_density(E, P, 3, 3, 500).to_json_dict()
    assert set(emp["empirical"]) == {"x", "hits", "scanned"}
    json.dumps(emp)  # serializable
