"""Shanks-Mestre `count_points` against the character-sum oracle."""

import math
import random
from contextlib import contextmanager

from edslab import elliptic, ntkernel
from edslab.elliptic import CurveFp, CurveQ, count_points, count_points_naive
from edslab.ntkernel import is_prime, sieve_primes

# the fixture curve, a j = 0 curve (a = 0) and a j = 1728 curve (b = 0)
CURVES = [CurveQ(0, 3), CurveQ(0, 17), CurveQ(-1, 0), CurveQ(2, 0), CurveQ(-4, 4)]


def _good_reductions(curve, primes):
    return [CurveFp.from_curve(curve, p) for p in primes if p != 2 and curve.disc % p]


def test_matches_naive_below_3000():
    primes = sieve_primes(3000)
    for curve in CURVES:
        for cfp in _good_reductions(curve, primes):
            assert count_points(cfp) == count_points_naive(cfp), (curve, cfp.p)


def test_matches_naive_on_seeded_large_primes():
    rng = random.Random(20261017)
    primes = []
    while len(primes) < 40:
        p = rng.randrange(10**4, 10**5) | 1
        if is_prime(p):
            primes.append(p)
    for i, p in enumerate(primes):
        cfp = CurveFp.from_curve(CURVES[i % len(CURVES)], p)
        n_points, trace = count_points(cfp)
        assert (n_points, trace) == count_points_naive(cfp), (cfp, p)
        assert trace * trace <= 4 * p


def test_counts_take_no_square_root(monkeypatch):
    # each x gives the point (x*f, f^2) on E twisted by f = f(x): no root of f is taken
    def refuse(*args):
        raise AssertionError("count_points took a square root")

    monkeypatch.setattr(ntkernel, "sqrt_mod_prime", refuse)
    monkeypatch.setattr(elliptic, "sqrt_mod_prime", refuse, raising=False)
    primes = [p for p in sieve_primes(3000) if p >= 400]
    for curve in CURVES:
        for cfp in _good_reductions(curve, primes):
            n_points, trace = count_points(cfp)
            assert n_points == cfp.p + 1 - trace and trace * trace <= 4 * cfp.p, (curve, cfp.p)


def test_repeated_calls_agree():
    cfp = CurveFp.from_curve(CURVES[0], 99991)
    first = count_points(cfp)
    assert all(count_points(cfp) == first for _ in range(3))


def test_both_sides_of_the_crossover(monkeypatch):
    cut = elliptic.NAIVE_COUNT_BELOW
    near = [p for p in sieve_primes(cut + 200) if p > cut - 200]
    assert near[0] < cut <= near[-1]
    calls = []
    real_naive = elliptic.count_points_naive
    monkeypatch.setattr(elliptic, "count_points_naive", lambda c: calls.append(c.p) or real_naive(c))
    for curve in CURVES:
        for cfp in _good_reductions(curve, near):
            assert count_points(cfp) == real_naive(cfp), (curve, cfp.p)
    # above the crossover every count was settled without the fallback
    assert calls and max(calls) < cut


def test_baby_giant_counts_small_primes_exactly(monkeypatch):
    # with the crossover removed, every count is still exact: primes where no
    # point pins #E down (only possible for p <= 229) fall back to the sum
    monkeypatch.setattr(elliptic, "NAIVE_COUNT_BELOW", 3)
    primes = sieve_primes(400)
    for curve in CURVES:
        for cfp in _good_reductions(curve, primes):
            assert count_points(cfp) == count_points_naive(cfp), (curve, cfp.p)


def test_each_count_writes_one_span_with_its_path(monkeypatch):
    spans = []

    @contextmanager
    def span(name, **fields):
        spans.append((name, fields))
        yield fields

    monkeypatch.setattr(elliptic, "_span", span)
    bad = CurveFp.from_curve(CurveQ(-3, 403), 401)  # disc = -16*27*401*405
    large = CurveFp.from_curve(CURVES[0], 99991)
    assert not bad.good
    for cfp in (CurveFp.from_curve(CURVES[0], 97), bad, large):
        assert count_points(cfp) == count_points_naive(cfp)
    # no point pins #E down: MESTRE_MAX_POINTS orders are found, then the sum runs
    monkeypatch.setattr(elliptic, "_unique_hasse_candidate", lambda *args: None)
    assert count_points(large) == count_points_naive(large)
    assert {name for name, _ in spans} == {"elliptic.count_points"}
    records = [(f["p"], f["path"], f["reason"], f["points"]) for _, f in spans]
    assert records[:2] == [(97, "naive", "small_p", 0), (401, "naive", "bad_reduction", 0)]
    assert records[2][:3] == (99991, "mestre", None) and records[2][3] >= 1
    assert records[3] == (99991, "naive", "points_exhausted", elliptic.MESTRE_MAX_POINTS)


def test_the_mestre_search_meets_only_the_cases_its_invariants_allow(monkeypatch):
    # each point (x*f, f^2) lies on E or its twist E', whose order lies in the
    # Hasse interval, so no d = 1 search comes back empty; and gcd(m_e, m_twist)
    # divides #E + #E' = 2p + 2, so `_unique_hasse_candidate` can always solve
    search, candidate = elliptic.multiple_in_hasse, elliptic._unique_hasse_candidate
    searches, gcds = [], []

    def recorded_search(base, p, a, d=1):
        m = search(base, p, a, d)
        searches.append((d, m))
        return m

    def recorded_candidate(m_e, m_twist, p):
        gcds.append((math.gcd(m_e, m_twist), p))
        return candidate(m_e, m_twist, p)

    monkeypatch.setattr(elliptic, "multiple_in_hasse", recorded_search)
    monkeypatch.setattr(elliptic, "_unique_hasse_candidate", recorded_candidate)
    primes = [p for p in sieve_primes(3000) if p >= elliptic.NAIVE_COUNT_BELOW]
    for curve in CURVES:
        for cfp in _good_reductions(curve, primes):
            count_points(cfp)
    assert searches and all(d == 1 and m is not None for d, m in searches)
    assert gcds and all((2 * p + 2) % g == 0 for g, p in gcds)
