import json
import math

import pytest

from edslab import elliptic, galois_density
from edslab.elliptic import (
    NAIVE_COUNT_BELOW,
    CurveFp,
    CurveQ,
    PointQ,
    count_points,
    fp_scalar_mul,
    multiple_in_hasse,
    point_order_fp,
    reduce_point,
)
from edslab.galois_density import (
    _scan_one_prime,
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
    with pytest.raises(ValueError):
        count_gl2(37, 1, 1)  # beyond the default cap


def test_histogram_partitions_group():
    for q in (3, 5, 7):
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


CM_CURVES = [
    (CurveQ(0, 17), PointQ(-2, 3, 1)),  # j = 0
    (CurveQ(-2, 0), PointQ(2, 2, 1)),  # j = 1728
]


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
                for a in range(q):
                    b = (a - 1) % q
                    if b:
                        expected = p % q == b and trace % q == a and order % q == 0
                        assert _scan_one_prime(curve, point, q, b, p) == expected, (curve, q, a, p)


def test_scan_predicate_when_the_baby_steps_reach_the_identity():
    # ord(P mod p) <= the number of baby steps: the multiple is the order itself
    for (curve, point), p, q in ((CM_CURVES[0], 181, 5), (CM_CURVES[0], 673, 7), (CM_CURVES[1], 79, 5)):
        cfp = CurveFp.from_curve(curve, p)
        pt = reduce_point(point, curve, p)
        assert multiple_in_hasse(pt, cfp) == point_order_fp(pt, cfp) == q
        assert _scan_one_prime(curve, point, q, p % q, p)
        assert not _scan_one_prime(curve, point, 3, p % 3, p)


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
                m = multiple_in_hasse(pt, cfp, d)
                step = math.lcm(d, order)
                assert (m is None) == ((p + 1 + w) // step * step < p + 1 - w), (curve, p, d)
                if m is not None:
                    assert m % d == 0 and fp_scalar_mul(m, pt, cfp) is None, (curve, p, d)
                no_multiple_of_d += (p + 1 + w) // d * d < p + 1 - w
    assert no_multiple_of_d > 0  # e.g. d = 13 at p = 3 and 5


def test_scan_searches_only_the_multiples_of_q(monkeypatch):
    # the search over the whole Hasse interval (d = 1) takes 731 affine
    # additions on this scan, the search over the multiples of q 271; scalar
    # multiples add no affine points.  Each prime in the residue class takes
    # at most 3 scalar multiples: base, the first giant point, the q-free
    # part of the multiple.
    adds, muls = [], []
    add, mul = elliptic.fp_add, elliptic.fp_scalar_mul
    monkeypatch.setattr(elliptic, "fp_add", lambda *args: adds.append(1) or add(*args))
    monkeypatch.setattr(elliptic, "fp_scalar_mul", lambda *args: muls.append(1) or mul(*args))
    scan = empirical_density(E, P, 13, 3, 4000).empirical
    assert (scan.hits, scan.scanned) == (4, 547)
    in_class = [p for p in sieve_primes(4000) if p % 13 == 2 and p != 2 and E.disc % p]
    assert len(adds) <= 400
    assert len(muls) <= 3 * len(in_class)


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
