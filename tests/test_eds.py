import hashlib
import json
import math
import os
import random
import shutil
import time
import types
from decimal import Decimal
from itertools import islice

import pytest

import edslab
from edslab import eds, elliptic, lrs, ntkernel, refuter

from edslab.eds import (
    WardSeed,
    division_poly_seeds,
    eds_period_mod_p,
    generate_geometric,
    generate_ward,
    geometric_term,
    ladder_block,
    load_sequence,
    primitive_divisor_scan,
    primitive_parts,
    save_sequence,
    stream_mod_p,
    ward_period,
)
from edslab.elliptic import (
    CurveFp,
    CurveQ,
    InexactDivisionError,
    PointQ,
    count_points,
    is_torsion,
    point_order_fp,
    reduce_point,
    ward_terms,
)
from edslab.ntkernel import IncompleteFactorization, factorize, sieve_primes
from test_elliptic import ORACLE_FIXTURES, add, multiples

E = CurveQ(0, 3)
P = PointQ(1, 2, 1)


def fixture_sequence(n=30):
    return generate_geometric(E, P, n)


def test_generation_refuses_an_empty_prefix():
    # the gcd path asks `ward_terms` for one term more than it lists, so its
    # own check, not that of `ward_terms`, refuses n_terms = 0
    with pytest.raises(ValueError, match="^need at least one term$"):
        generate_geometric(CurveQ(0, 17), PointQ(-2, 3, 1), 0)


def test_geometric_first_terms():
    seq = fixture_sequence(6)
    assert seq.term(1) == 1
    assert seq.term(2) == 4  # 2P = (-23, -11, 4)
    assert all(t > 0 for t in seq.terms)


def test_geometric_rejects_torsion():
    with pytest.raises(ValueError, match=r"^point is torsion \(order 2\)"):
        generate_geometric(CurveQ(0, -1), PointQ(1, 0, 1), 5)


def test_geometric_checks_the_curve_before_torsion():
    # (0, 0) is off y^2 = x^3 + x + 1, but with z = 1 and y = 0 the torsion
    # rules give it order 2: it was refused as a torsion point
    curve, point = CurveQ(1, 1), PointQ(0, 0, 1)
    with pytest.raises(ValueError, match="^point is not on the curve$"):
        generate_geometric(curve, point, 5)


def test_divisibility_property():
    seq = fixture_sequence(30)
    for n in range(1, 31):
        for m in range(1, n):
            if n % m == 0:
                assert seq.term(n) % seq.term(m) == 0, (m, n)


def test_ward_seed_validation():
    with pytest.raises(ValueError):
        WardSeed(1, 0, 1, 1)
    with pytest.raises(ValueError):
        WardSeed(1, 2, 1, 1)  # w2 does not divide w4


def test_ward_fixed_values():
    seq = generate_ward(WardSeed(1, 1, -1, 1), 10)
    assert seq.term(5) == 2
    assert seq.term(6) == -1
    assert seq.degenerate_at is None


def test_ward_degenerate_flagging():
    seq = generate_ward(WardSeed(1, 1, 1, 1), 8)
    assert seq.term(5) == 0
    assert seq.degenerate_at == 5


def test_ward_inexact_division_reported():
    # w5 = (w4*w2^3 - w3^3*w1) / w1^3 = -2/27: not an integer sequence seed
    with pytest.raises(InexactDivisionError) as exc:
        generate_ward(WardSeed(3, 1, 1, 1), 12)
    assert exc.value.index == 5


def test_inexact_division_error_states_sizes_not_decimal_values():
    # a numerator past CPython's 4,300-digit str() limit used to make the
    # constructor itself raise ValueError
    exc = InexactDivisionError(5, 10**5000, 3)
    assert exc.index == 5
    assert str(exc) == "inexact division at index 5: a 16610-bit numerator by a 2-bit denominator"


def test_ward_matches_geometric_up_to_sign():
    n = 24
    geo = fixture_sequence(n)
    seeds = division_poly_seeds(E, P)
    assert seeds == (1, 4, 39, -88)
    ward = generate_ward(WardSeed(*seeds), n)
    signs = []
    for i in range(1, n + 1):
        assert abs(ward.term(i)) == geo.term(i), i
        signs.append(1 if ward.term(i) > 0 else -1)
    assert signs[:4] == [1, 1, 1, -1]


# points with gcd(2y, 3x^2 + a*z^4) = 1; (25, -3, 4) is 2*(0, 2, 1) on (-5, 4)
COMPANION_FIXTURES = [
    (CurveQ(0, 3), PointQ(1, 2, 1)),
    (CurveQ(-4, 4), PointQ(1, 1, 1)),
    (CurveQ(-5, 4), PointQ(25, -3, 4)),
    (CurveQ(-5, 2), PointQ(-2, 2, 1)),
    (CurveQ(-3, -1), PointQ(2, 1, 1)),
    (CurveQ(-6, 6), PointQ(1, 1, 1)),
]


@pytest.mark.parametrize("curve,point", COMPANION_FIXTURES)
def test_geometric_terms_are_z1_times_companion(curve, point):
    # z_n = z1*|w_n|, not |w_n|: the ratio is z1 = 4 at every n for (25, -3, 4)
    ward = generate_ward(WardSeed(*division_poly_seeds(curve, point)), 40)
    assert generate_geometric(curve, point, 40).terms == [point.z * abs(w) for w in ward.terms]


def _chord_tangent_terms(curve, point, n):
    """z_1..z_n of P, 2P, ..., nP by repeated chord-tangent addition."""
    current, terms = point, [point.z]
    for _ in range(n - 1):
        current = add(current, point, curve)
        terms.append(current.z)
    return terms


def _companion_gcd(curve, point):
    """gcd(2y, 3x^2 + a*z^4): 1 exactly when z_n = z_1*|w_n| for every n (Ayad)."""
    return math.gcd(2 * point.y, 3 * point.x**2 + curve.a * point.z**4)


@pytest.mark.parametrize("curve,point,g", ORACLE_FIXTURES)
def test_geometric_matches_chord_tangent_walk(curve, point, g):
    # Ayad points (g = 1) with z_1 = 1 and z_1 > 1 take z_n = z_1*|w_n|;
    # the others take one gcd per term, where z_1*|w_n| would be wrong
    assert curve.contains(point) and _companion_gcd(curve, point) == g
    assert generate_geometric(curve, point, 32).terms == _chord_tangent_terms(curve, point, 32)


def test_geometric_matches_chord_tangent_walk_on_small_curves():
    # every non-torsion P, 2P, 3P with P = (x, y, 1), |x| <= 4, y > 0, on the
    # curves with |a|, |b| <= 4
    classes = {True: 0, False: 0}
    for a in range(-4, 5):
        for b in range(-4, 5):
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            curve = CurveQ(a, b)
            for x in range(-4, 5):
                y = math.isqrt(max(x**3 + a * x + b, 0))
                if y == 0 or y * y != x**3 + a * x + b or is_torsion(PointQ(x, y, 1), curve)[0]:
                    continue
                for point in islice(multiples(PointQ(x, y, 1), curve), 3):
                    terms = generate_geometric(curve, point, 12).terms
                    assert terms == _chord_tangent_terms(curve, point, 12), (a, b, point)
                    classes[_companion_gcd(curve, point) == 1] += 1
    assert classes[True] > 50 and classes[False] > 50, classes


def _forbid_multiples(monkeypatch):
    """Make `elliptic.scalar_mul`, the library's one n*P over Q, raise."""

    def forbidden(*args):
        raise AssertionError("a multiple of the point was formed")

    monkeypatch.setattr(elliptic, "scalar_mul", forbidden)


@pytest.mark.parametrize("curve,point", [(E, P), (CurveQ(0, 17), PointQ(-2, 3, 1))])
def test_geometric_generation_does_no_point_addition(curve, point, monkeypatch):
    # the torsion check, by Nagell-Lutz and the division-polynomial terms,
    # forms no multiple either
    _forbid_multiples(monkeypatch)
    seq = generate_geometric(curve, point, 100)
    assert len(seq) == 100 and all(t > 0 for t in seq.terms)
    assert seq.term(100) % seq.term(50) == 0


def test_z_repeats_the_companion_period_only_up_to_sign():
    # tz = 30 is the period of w_n mod 7; z_n = |w_n| follows it up to the
    # sign of the integer w_n, which is not periodic, so neither tz nor 2*tz
    # is a period of z_n mod 7, while the zero set keeps the period rank 5
    curve, point, p = CurveQ(-4, 4), PointQ(1, 1, 1), 7
    result = eds_period_mod_p(generate_geometric(curve, point, 4), p)
    assert (result.period, result.rank) == (30, 5)
    z = [0, *generate_geometric(curve, point, 130).terms]
    assert all((z[n + 30] - z[n]) * (z[n + 30] + z[n]) % p == 0 for n in range(1, 101))
    flipped = [n for n in range(1, 71) if (z[n + 30] + z[n]) % p == 0 and z[n] % p]
    assert len(flipped) == 18
    for t in (30, 60):
        assert any((z[n + t] - z[n]) % p for n in range(1, 71))
    assert all((z[n] % p == 0) == (n % 5 == 0) for n in range(1, 131))


def _minimal_stream_period(stream, step, horizon):
    """Smallest period that is a multiple of `step`, verified on the window:
    the windowed reference for `ward_period`.

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


def _windowed_period(seeds, p, rank, period):
    """The minimal period found by scanning a window that holds it twice."""
    horizon = 2 * period + 2 * rank + 16
    return _minimal_stream_period(stream_mod_p(seeds, p, horizon), rank, horizon)


def test_ward_period_matches_windowed_search():
    # every odd good prime below 400 on five curves, among them ranks 3
    # (the shortest prefix Ward's constants can be read from) and z1 = 4
    ranks = []
    for curve, point in COMPANION_FIXTURES[:5]:
        seq = generate_geometric(curve, point, 4)
        seeds = division_poly_seeds(curve, point)
        for p in sieve_primes(400)[1:]:
            if (curve.disc * point.z * 2 * point.y) % p == 0:
                continue
            result = eds_period_mod_p(seq, p)
            assert result.confirmed and result.zeros_consistent
            assert ward_period(seeds, p, result.rank) == result.period
            windowed = _windowed_period(seeds, p, result.rank, result.period)
            assert windowed == result.period, (curve, point, p)
            ranks.append(result.rank)
    assert len(ranks) == 4 * 76 + 75
    assert ranks.count(3) == 8


def test_ward_period_refuses_a_rank_that_is_not_the_rank_of_apparition(monkeypatch):
    # at 2r Ward's symmetry still holds (with a^2, b^4) and w_(2r) = 0, so
    # only the check w_(2r/2) != 0 refuses it; at r + 1 w_(r+1) != 0
    seeds, p = division_poly_seeds(E, P), 7
    r = eds_period_mod_p(fixture_sequence(5), p).rank
    assert (r, ward_period(seeds, p, r)) == (13, 39)
    assert ward_period(seeds, p, 2 * r) is None
    assert ward_period(seeds, p, r + 1) is None
    # r is the rank of apparition, but w_(r+3) != w_3 * a^3 * b in the block at r
    # that ward_period reads from the ladder
    ladder = eds.ladder_block

    def tampered(s, q, n):
        block = ladder(s, q, n)
        if n == r:
            block[6] = 2 * block[6] % q
        return block

    monkeypatch.setattr(eds, "ladder_block", tampered)
    assert ward_period(seeds, p, r) is None


def _signed(stream, p, n):
    """w_n mod p for any integer n, from w_{-n} = -w_n."""
    return stream[n] if n >= 0 else -stream[-n] % p


@pytest.mark.parametrize("curve,point", COMPANION_FIXTURES[:2] + [(CurveQ(0, 17), PointQ(-2, 3, 1))])
def test_ladder_block_matches_the_stream(curve, point):
    # n = 0..4 (the block reaches below w_0), random n <= 10^4, and n next
    # to the zeros, at the multiples of the rank
    rng = random.Random(12)
    seeds = division_poly_seeds(curve, point)
    for p in (11, 101, 1009):
        if (curve.disc * 2 * point.y) % p == 0:
            continue
        stream = stream_mod_p(seeds, p, 10_010)
        rank = next(n for n in range(1, 10_010) if stream[n] == 0)
        near_zeros = [k * rank + d for k in (1, 2, 7) for d in range(-4, 5) if k * rank + d >= 1]
        for n in [0, 1, 2, 3, 4, *near_zeros, *(rng.randint(5, 10_000) for _ in range(60))]:
            assert ladder_block(seeds, p, n) == [_signed(stream, p, m) for m in range(n - 3, n + 5)], (p, n)
    with pytest.raises(ValueError, match="coprime to w1\\*w2"):
        ladder_block(seeds, 2, 5)


def test_ladder_block_repeats_with_the_period_at_any_distance():
    # a walk of the stream could not reach n + 2^64 * T
    seeds, p = division_poly_seeds(E, P), 1009
    period = ward_period(seeds, p, 237)
    for n in (1, 5, 237, 1000):
        assert ladder_block(seeds, p, n + 2**64 * period) == ladder_block(seeds, p, n)


def test_ward_period_takes_logarithmically_many_ladder_steps(monkeypatch):
    # at p = 999,979 the order is 499,538 = 2 * 13 * 19,213; the least
    # period is the one the former 2r + 2 term stream gave
    seeds, p, r = division_poly_seeds(E, P), 999_979, 499_538

    def no_stream(*args):
        raise AssertionError("ward_period streamed w_n")

    steps = []
    ladder = eds.ladder_block
    monkeypatch.setattr(eds, "stream_mod_p", no_stream)
    monkeypatch.setattr(eds, "ladder_block", lambda s, p, n: steps.append(max(n.bit_length(), 1)) or ladder(s, p, n))
    assert ward_period(seeds, p, r) == 5_741_689_772
    assert 0 < sum(steps) <= 4 * (1 + len(factorize(r))) * math.log2(r)


# ---------------------------------------------------------------------------
# the unrolled kernel against one `_ward_step` per term

# the seeds of the six companion points, of a gcd-path point and of (8,3), (13,48,1), and Ward seeds
KERNEL_SEEDS = [division_poly_seeds(curve, point) for curve, point in COMPANION_FIXTURES] + [
    division_poly_seeds(CurveQ(0, 17), PointQ(-2, 3, 1)),
    division_poly_seeds(CurveQ(8, 3), PointQ(13, 48, 1)),
    (1, -7, 22, -119),
    (1, 1, -1, 1),
    (1, 3, 2, 9),
]


def _reference_block(seeds, p, n):
    """The ladder with each term of each doubling from its own `_ward_step`."""
    w1, w2, w3, w4 = seeds if p is None else (s % p for s in seeds)
    if w1 == 0 or w2 == 0:
        raise ValueError("w1 and w2 must be non-zero" if p is None else f"stream modulo {p} needs p coprime to w1*w2")
    w, j = [-w3, -w2, -w1, 0, w1, w2, w3, w4], 0
    den = (w2 * w1 * w1, w1**3)
    for b in map(int, bin(n)[2:]):
        steps = range(3 + b, 11 + b)
        if p is None:
            w = [elliptic._exact_div(elliptic._ward_step(w, m), den[m & 1], m + 2 * j - 6) for m in steps]
        else:
            w = [elliptic._ward_step(w, m) * pow(den[m & 1], -1, p) % p for m in steps]
        j = 2 * j + b
    return w


def _outcome(f, *args):
    """f(*args), or the error it raises with its index or message."""
    try:
        return f(*args)
    except InexactDivisionError as exc:
        return ("inexact", exc.index)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _kernel_primes(seeds, rng):
    """Primes from 3 to 2^61 - 1, and the small primes dividing w1..w4."""
    small = [p for p in sieve_primes(60)[1:] if any(s % p == 0 for s in seeds)]
    return sorted({3, 5, 7, 11, *small, *rng.sample(sieve_primes(20_000)[5:], 6), 1_000_003, 10**9 + 7, 2**61 - 1})


def test_ladder_block_matches_its_reference():
    rng = random.Random(30)
    divides = {3: 0, 4: 0, 12: 0}  # primes dividing w3, w4, w1*w2 met in the sweep
    for seeds in KERNEL_SEEDS:
        for n in [*range(0, 13), *rng.sample(range(13, 201), 6), 200]:
            assert _outcome(ladder_block, seeds, None, n) == _outcome(_reference_block, seeds, None, n), (seeds, n)
        for p in _kernel_primes(seeds, rng):
            for i, key in ((2, 3), (3, 4)):
                divides[key] += seeds[i] % p == 0
            divides[12] += seeds[0] * seeds[1] % p == 0
            for n in [*range(0, 9), *(rng.randint(9, 10**6) for _ in range(4)), 10**6]:
                assert _outcome(ladder_block, seeds, p, n) == _outcome(_reference_block, seeds, p, n), (seeds, p, n)
    assert all(divides.values()), divides
    with pytest.raises(ValueError, match="coprime to w1\\*w2"):
        ladder_block((1, 7, 1, 7), 7, 5)


def test_generate_ward_matches_its_reference():
    # (1, 1, -1, 0) and (1, 1, 1, 1) have zero terms from 4 and 5 on; (3, 1, 1, 1) an inexact w_5
    for seeds in KERNEL_SEEDS + [(1, 1, -1, 0), (1, 1, 1, 1), (3, 1, 1, 1)]:
        w = [0, *seeds]
        den = (seeds[1] * seeds[0] ** 2, seeds[0] ** 3)
        for m in range(5, 121):
            w.append(_outcome(elliptic._exact_div, elliptic._ward_step(w, m), den[m & 1], m))
            if isinstance(w[-1], tuple):  # an inexact division
                assert _outcome(lambda: generate_ward(WardSeed(*seeds), 120).terms) == w[-1]
                break
        else:
            seq = generate_ward(WardSeed(*seeds), 120)
            assert (seq.terms, seq.degenerate_at) == (w[1:], next((n for n in range(1, 121) if w[n] == 0), None))
            assert [generate_ward(WardSeed(*seeds), n).terms for n in range(1, 9)] == [w[1 : n + 1] for n in range(1, 9)]


def _reference_ward_period(seeds, p, rank):
    """ward_period as one full ladder per block: at r, at 0 and at r/l for every prime l | r."""
    block, w = _reference_block(seeds, p, rank), _reference_block(seeds, p, 0)
    if block[3] != 0 or 0 in block[4:6]:
        return None
    if any(_reference_block(seeds, p, rank // ell)[3] == 0 for ell in factorize(rank)):
        return None
    a = block[5] * w[4] * pow(w[5] * block[4], -1, p) % p
    b = block[4] * pow(w[4] * a, -1, p) % p
    if any(block[n + 3] != w[n + 3] * pow(a, n, p) * b % p for n in range(-3, 5)):
        return None
    t = eds.multiplicative_order(a, p)
    for ell, e in factorize(eds.multiplicative_order(b, p)).items():
        t = math.lcm(t, ell ** ((e + 1) // 2))
    return rank * t


def test_ward_period_matches_its_reference():
    # at each (seed, p): the rank r, r + 1 (w_r != 0), 2r and 3r (w_{r/l} = 0)
    # and the powers of 2 up to 256; seen: confirmed at an odd r, at an even r
    # and at r = 2^k, and refused for each reason, p | w_3 among them
    rng = random.Random(31)
    seen = dict.fromkeys(("odd", "even", "power_of_2", "w_r", "w_r/l", "p|w3"), 0)
    for seeds in KERNEL_SEEDS:
        for p in sorted({*rng.sample(sieve_primes(2000)[1:], 25), *(p for p in (3, 5, 7, 11, 13) if seeds[2] % p == 0)}):
            if seeds[0] * seeds[1] % p == 0:
                continue
            top = p + 1 + math.isqrt(4 * p)
            stream = stream_mod_p(seeds, p, top)
            r = next((n for n in range(1, top + 1) if stream[n] == 0), None)
            if r is None:
                continue
            for rank in sorted({r, r + 1, 2 * r, 3 * r, *(2**k for k in range(1, 9))}):
                period = ward_period(seeds, p, rank)
                assert period == _reference_ward_period(seeds, p, rank), (seeds, p, rank)
                if rank == r:
                    seen["p|w3"] += seeds[2] % p == 0 and period is None
                    if period is not None:
                        seen["odd" if r % 2 else "even"] += 1
                        seen["power_of_2"] += r & (r - 1) == 0
                else:
                    seen["w_r" if rank % r else "w_r/l"] += period is None
    assert all(seen.values()), seen


@pytest.mark.parametrize("p,rank,period", [(1009, 237, 17064), (3001, 1554, 2331000)])
def test_ward_period_matches_windowed_search_large_p(p, rank, period):
    result = eds_period_mod_p(fixture_sequence(4), p)
    assert (result.rank, result.period) == (rank, period)
    assert _windowed_period(division_poly_seeds(E, P), p, rank, period) == period


def test_stream_matches_exact_reduction():
    seeds = division_poly_seeds(E, P)
    ward = generate_ward(WardSeed(*seeds), 40)
    for p in (5, 7, 11, 13):
        stream = stream_mod_p(seeds, p, 40)
        for n in range(1, 41):
            assert stream[n] == ward.term(n) % p


def test_period_divides_classical_bound_small_primes():
    seq = fixture_sequence(5)
    for p in (5, 7, 11, 13, 17):
        result = eds_period_mod_p(seq, p)
        assert result.confirmed
        assert result.period_bound == 2 * (p - 1) * result.n_points
        assert result.divides_bound
        assert result.zeros_consistent


def test_period_fixed_value_p5():
    # rank 6 and stream constants of order 4 give minimal period 24
    result = eds_period_mod_p(fixture_sequence(5), 5)
    assert result.rank == 6
    assert result.period == 24


def test_rank_equals_point_order():
    seq = fixture_sequence(5)
    for p in (5, 7, 11, 13, 17, 19, 23):
        cfp = CurveFp.from_curve(E, p)
        n_points, _ = count_points(cfp)
        order = point_order_fp(reduce_point(P, E, p), cfp, n_points)
        result = eds_period_mod_p(seq, p)
        assert result.rank == order
        assert result.period % order == 0


def test_zero_pattern_matches_exact_terms():
    # zeros of (z_n mod p) are exactly the multiples of the rank
    seq = fixture_sequence(30)
    for p in (5, 7, 11):
        result = eds_period_mod_p(seq, p)
        for n in range(1, 31):
            assert (seq.term(n) % p == 0) == (n % result.rank == 0)


def test_period_unconfirmed_when_ward_period_refuses(monkeypatch):
    monkeypatch.setattr(eds, "ward_period", lambda seeds, p, rank: None)
    for seq in (fixture_sequence(5), generate_ward(WardSeed(1, 1, -1, 1), 4)):
        result = eds_period_mod_p(seq, 7)
        assert result.status == "unconfirmed"
        assert result.period is None and result.rank is not None


def test_period_ward_source():
    seq = generate_ward(WardSeed(1, 1, -1, 1), 6)
    result = eds_period_mod_p(seq, 7)
    assert result.confirmed
    stream = stream_mod_p((1, 1, -1, 1), 7, 2 * result.period)
    assert all(stream[n + result.period] == stream[n] for n in range(1, result.period + 1))


def test_ward_seeded_periods_past_the_former_window():
    # a window of max(4096, 16p) terms left both unconfirmed; the rank is
    # the first zero within p + 1 + isqrt(4p) terms
    seeds = (1, 1, -1, 1)
    seq = generate_ward(WardSeed(*seeds), 4)
    result = eds_period_mod_p(seq, 1009)
    assert (result.rank, result.period) == (1057, 532_728)
    assert _windowed_period(seeds, 1009, result.rank, result.period) == result.period
    result = eds_period_mod_p(seq, 10_007)
    assert (result.rank, result.period, result.window) == (1657, 8_289_971, (1, 33_163_214))
    for n in (1, 2, 1657, 123_456):
        assert ladder_block(seeds, 10_007, n + result.period) == ladder_block(seeds, 10_007, n)


def test_ward_seeded_periods_match_the_windowed_reference():
    # random seeds at p < 200: every confirmed period is the windowed least
    # period, and the former search over max(4096, 16p) terms confirmed a
    # period that `ward_period` refuses only where p | w3
    rng = random.Random(16)
    primes = sieve_primes(200)[1:]
    tally = {"confirmed": 0, "newly_confirmed": 0, "refused_at_p_dividing_w3": 0}
    while sum(tally.values()) < 300:
        w2, w3 = rng.choice([v for v in range(-9, 10) if v]), rng.choice([v for v in range(-30, 31) if v])
        seeds = (rng.choice([1, 1, -1, 2, 3]), w2, w3, w2 * rng.randint(-20, 20))
        p = rng.choice(primes if rng.random() < 0.5 else primes[:10])
        if seeds[0] * seeds[1] % p == 0:
            continue
        result = eds_period_mod_p(generate_ward(WardSeed(*seeds), 4), p)
        horizon = max(4096, 16 * p)
        stream = stream_mod_p(seeds, p, horizon)
        rank = next((n for n in range(1, horizon + 1) if stream[n] == 0), 1)
        former = _minimal_stream_period(stream, rank, horizon)
        if result.confirmed:
            assert _windowed_period(seeds, p, result.rank, result.period) == result.period, (seeds, p)
            assert former in (None, result.period), (seeds, p)
            tally["confirmed" if former else "newly_confirmed"] += 1
        elif former is not None:
            assert seeds[2] % p == 0, (seeds, p)
            tally["refused_at_p_dividing_w3"] += 1
    assert min(tally.values()) > 0, tally


def test_ward_period_refuses_a_rank_whose_next_terms_vanish():
    # p | w3 and p | w4: w_3 = 0 but w_4 = 0 too, so no a and b exist
    assert ward_period((2, 7, 3, 42), 3, 3) is None
    result = eds_period_mod_p(generate_ward(WardSeed(1, 1, 3, 3), 4), 3)
    assert (result.rank, result.status) == (3, "unconfirmed")


def test_period_rejects_bad_primes():
    with pytest.raises(ValueError):
        eds_period_mod_p(fixture_sequence(5), 3)  # 3 divides the discriminant
    with pytest.raises(ValueError):
        eds_period_mod_p(fixture_sequence(5), 4)


def primality_tests(monkeypatch, p: int) -> list[int]:
    """A list that grows by one entry each time a module on the witness path tests p prime."""
    calls = []

    def counted(n: int, is_prime=ntkernel.is_prime) -> bool:
        if n == p:
            calls.append(n)
        return is_prime(n)

    for module in (ntkernel, elliptic, eds, lrs, refuter):
        monkeypatch.setattr(module, "is_prime", counted)
    return calls


def test_a_geometric_period_tests_p_prime_once(monkeypatch):
    # only `CurveFp.from_curve` tests it: `eds_period_mod_p` leaves a geometric source's p to it
    seq = generate_geometric(CurveQ(-4, 4), PointQ(1, 1, 1), 1)
    calls = primality_tests(monkeypatch, 10_007)
    eds_period_mod_p(seq, 10_007)
    assert len(calls) == 1


def test_period_answers_for_point_outside_companion_model():
    # gcd(2y, 3x^2 + a*z^4) = gcd(6, 12) = 6: |w_n| / z_n grows by factors of 2
    # and 3, so the period 39 of the stream mod 7 is not a period of z_n; the
    # reported period is that of w_n, and the rank is still the order of P
    curve, point = CurveQ(0, 17), PointQ(-2, 3, 1)
    geo = generate_geometric(curve, point, 40)
    ward = generate_ward(WardSeed(*division_poly_seeds(curve, point)), 40)
    assert any(abs(ward.term(n)) != geo.term(n) for n in range(1, 41))
    assert (geo.term(40) % 7, geo.term(1) % 7) == (3, 1)
    result = eds_period_mod_p(geo, 7)
    assert (result.status, result.period, result.rank) == ("confirmed", 39, 13)


def test_period_outside_companion_model_matches_the_stream():
    # g = 6, 2 and 2: at every good prime below 300 the order of P mod p is
    # the first zero of w_n mod p, and Ward's period is the windowed one
    cases = 0
    for curve, point, g in (ORACLE_FIXTURES[8], ORACLE_FIXTURES[11], (CurveQ(-2, 0), PointQ(2, 2, 1), 2)):
        assert _companion_gcd(curve, point) == g
        seq = generate_geometric(curve, point, 4)
        seeds = division_poly_seeds(curve, point)
        for p in sieve_primes(300)[1:]:
            if curve.bad_prime_product(point) % p == 0:
                continue
            result = eds_period_mod_p(seq, p)
            rank = point_order_fp(reduce_point(point, curve, p), CurveFp.from_curve(curve, p), result.n_points)
            assert result.confirmed and result.rank == rank
            assert ward_period(seeds, p, rank) == result.period
            horizon = 2 * result.period + 2 * rank + 16
            stream = stream_mod_p(seeds, p, horizon)
            assert next(n for n in range(1, horizon + 1) if stream[n] == 0) == rank, (curve, point, p)
            assert _minimal_stream_period(stream, rank, horizon) == result.period, (curve, point, p)
            cases += 1
    assert cases == 178


def test_primitive_divisors_fixture():
    seq = fixture_sequence(20)
    reports = primitive_divisor_scan(*primitive_parts(seq))
    assert reports[0].primes == [1] or reports[0].primitive_part == 1  # z_1 = 1
    # all prime factors of z_2 = 4 are primitive
    assert reports[1].primes == [2]
    missing = [r.n for r in reports if r.primitive_part <= 1]
    # Zsigmondy behaviour: only finitely many early terms lack one
    assert all(n <= 10 for n in missing)
    assert sum(1 for r in reports if r.primitive_part > 1) >= 15
    for r in reports:
        if r.complete and r.primitive_part > 1:
            prod = 1
            for q in r.primes:
                e = 0
                while r.primitive_part % q ** (e + 1) == 0:
                    e += 1
                prod *= q**e
            assert prod == r.primitive_part


def test_primitive_primes_do_not_divide_earlier_terms():
    seq = fixture_sequence(16)
    reports = primitive_divisor_scan(*primitive_parts(seq))
    for r in reports:
        for q in r.primes:
            assert all(seq.term(m) % q != 0 for m in range(1, r.n))


def test_largest_prime_grows():
    seq = fixture_sequence(18)
    reports = primitive_divisor_scan(*primitive_parts(seq))
    best = 0
    records = []
    for r in reports:
        if r.primes:
            largest = max(r.primes)
            if largest > best:
                best = largest
                records.append(r.n)
    assert len(records) >= 6  # new record primes keep appearing


def _running_product_parts(seq) -> list[int]:
    """The reference primitive parts: |z_n| stripped of every prime of the product
    of all earlier terms (0 for a zero term, after which that product is 0)."""
    parts, running = [], 1
    for n in range(1, len(seq) + 1):
        prim = abs(seq.term(n))
        g = math.gcd(prim, running) if prim else 1
        while g > 1:
            prim //= g
            g = math.gcd(prim, g)
        parts.append(prim)
        running *= abs(seq.term(n))
    return parts


@pytest.fixture
def unfactored_parts(monkeypatch):
    """`primitive_divisor_scan` with the factoring of each part patched out, not of each index."""
    factorize = eds.factorize
    monkeypatch.setattr(eds, "factorize", lambda n, **cap: {} if cap else factorize(n))


@pytest.mark.parametrize(
    "curve, point",
    [((-4, 4), (1, 1, 1)), ((0, 3), (1, 2, 1)), ((0, 17), (-2, 3, 1)), ((-16, 16), (0, 4, 1)), ((8, 3), (13, 48, 1))],
    ids=["ayad", "fixture", "gcd-6", "not-minimal-at-2", "large-height"],
)
def test_primitive_parts_match_the_running_product(unfactored_parts, curve, point):
    # strong divisibility: a prime of z_n that divides an earlier term divides some z_(n/l)
    seq = generate_geometric(CurveQ(*curve), PointQ(*point), 120)
    assert [r.primitive_part for r in primitive_divisor_scan(*primitive_parts(seq))] == _running_product_parts(seq)


def test_primitive_parts_after_a_zero_term_are_one(unfactored_parts):
    # w_4 = 0; w_5 = -27 and each later term is a multiple of 0, as the running product says
    seq = generate_ward(WardSeed(1, 2, 3, 0), 30)
    parts = [r.primitive_part for r in primitive_divisor_scan(*primitive_parts(seq))]
    assert seq.degenerate_at == 4 and seq.term(5) == -27
    assert parts == _running_product_parts(seq) == [1, 2, 3, 0, *[0 if seq.term(n) == 0 else 1 for n in range(5, 31)]]


def test_primitive_parts_to_200_take_a_fraction_of_a_second(unfactored_parts):
    # the running product of z_1..z_199 has about h*n^3/3 bits: its gcds took 2 s here
    seq = generate_geometric(CurveQ(-4, 4), PointQ(1, 1, 1), 200)
    start = time.perf_counter()
    reports = primitive_divisor_scan(*primitive_parts(seq))
    assert time.perf_counter() - start < 0.5
    assert len(reports) == 200 and sum(r.primitive_part > 1 for r in reports) >= 190


def test_a_traced_primitive_scan_writes_its_counts_in_one_span(monkeypatch, capsys):
    # the counts, taken here by wrapping the gcd and the factoring the scan calls;
    # every part past 10^6 gives up, as factoring past the effort cap does
    seq, gcds, parts = fixture_sequence(12), [], []
    counting = types.SimpleNamespace(**{**vars(math), "gcd": lambda a, b: gcds.append(1) or math.gcd(a, b)})

    def factoring_a_part(n, **cap):
        if cap:
            parts.append(n)
            if n > 10**6:
                raise IncompleteFactorization(n, {}, n)
        return factorize(n, **cap)

    monkeypatch.setattr(eds, "math", counting)
    monkeypatch.setattr(eds, "factorize", factoring_a_part)
    monkeypatch.setattr(edslab, "_TRACING", True)
    reports = primitive_divisor_scan(*primitive_parts(seq))
    spans = map(json.loads, capsys.readouterr().err.splitlines())
    [span] = [r for r in spans if r["span"] == "eds.primitive_divisor_scan"]
    assert parts == [r.primitive_part for r in reports if r.primitive_part > 1]
    assert {k: span[k] for k in ("terms", "gcds", "factored", "incomplete")} == {
        "terms": 12, "gcds": len(gcds), "factored": len(parts), "incomplete": sum(not r.complete for r in reports),
    }
    # one gcd per prime of each n <= 12 (14 in all) and 13 more that strip a common factor;
    # z_1 = 1 has no part, and the parts of z_7..z_12 pass 10^6
    assert (span["gcds"], span["factored"], span["incomplete"]) == (27, 11, 6)


def test_cache_roundtrip_and_corruption(tmp_path):
    seq = fixture_sequence(12)
    path = save_sequence(str(tmp_path), seq)
    loaded = load_sequence(str(tmp_path), E, P, 12)
    assert loaded is not None
    assert loaded.terms == seq.terms
    # corrupt the last record: revalidation must reject the file
    lines = open(path).read().splitlines()
    lines[-1] = "12 999999"
    open(path, "w").write("\n".join(lines) + "\n")
    assert load_sequence(str(tmp_path), E, P, 12) is None
    # short cache is a miss
    assert load_sequence(str(tmp_path), E, P, 40) is None


def test_cache_rejects_edited_middle_line(tmp_path):
    seq = fixture_sequence(12)
    path = save_sequence(str(tmp_path), seq)
    text = open(path).read()
    assert text.startswith("edslab-eds 5\n") and text.splitlines()[-1].startswith("blake2b ")
    # z_6 changes while z_1 and z_12, the terms re-derived exactly, do not
    edited = text.replace(f"\n6 {seq.term(6)}\n", f"\n6 {seq.term(6) + 1}\n")
    assert edited != text
    open(path, "w").write(edited)
    assert load_sequence(str(tmp_path), E, P, 12) is None


def test_cache_rejects_missing_hash_and_old_format(tmp_path):
    seq = fixture_sequence(12)
    path = save_sequence(str(tmp_path), seq)
    lines = open(path).read().splitlines(keepends=True)
    open(path, "w").write("".join(lines[:-1]))
    assert load_sequence(str(tmp_path), E, P, 12) is None
    open(path, "w").write("".join(lines[1:-1]))  # the unhashed format of earlier versions
    assert load_sequence(str(tmp_path), E, P, 12) is None
    open(path, "w").write("".join(lines[:-2]) + lines[-1])  # a dropped line
    assert load_sequence(str(tmp_path), E, P, 12) is None
    save_sequence(str(tmp_path), seq)
    assert load_sequence(str(tmp_path), E, P, 7).terms == seq.terms[:7]


def test_cache_stores_decimal_terms_and_misses_a_decimal_file_of_format_2(tmp_path):
    seq = fixture_sequence(12)
    path = save_sequence(str(tmp_path), seq)
    assert open(path).read().splitlines()[1:13] == [f"{n} {z}" for n, z in enumerate(seq.terms, start=1)]
    # the decimal format 2, correctly hashed, is a miss; a new save overwrites it
    decimal = "edslab-eds 2\n" + "".join(f"{n} {z}\n" for n, z in enumerate(seq.terms, start=1))
    open(path, "w").write(decimal + f"sha256 {hashlib.sha256(decimal.encode()).hexdigest()}\n")
    assert load_sequence(str(tmp_path), E, P, 12) is None
    save_sequence(str(tmp_path), seq)
    assert open(path).read().startswith("edslab-eds 5\n")
    assert load_sequence(str(tmp_path), E, P, 12).terms == seq.terms


def test_cache_misses_a_hex_file_of_format_4_by_its_header_and_overwrites_it(tmp_path):
    # format 4 held each term in hex under a BLAKE2b-256 line, as format 5 holds its digits
    from _blake2 import blake2b

    seq = fixture_sequence(12)
    path = eds.cache_path(str(tmp_path), E, P)
    old = "edslab-eds 4\n" + "".join(f"{n} {z:x}\n" for n, z in enumerate(seq.terms, start=1))
    open(path, "w").write(old + f"blake2b {blake2b(old.encode(), digest_size=32).hexdigest()}\n")
    assert eds._read_cached(path, E, P, 12) == (None, "header")
    assert save_sequence(str(tmp_path), seq) == path
    text = open(path).read()
    assert text.startswith("edslab-eds 5\n") and "\n12 " + str(seq.term(12)) + "\n" in text
    assert load_sequence(str(tmp_path), E, P, 12).terms == seq.terms


def test_cache_misses_a_sha256_file_of_format_3_and_overwrites_it(tmp_path):
    seq = fixture_sequence(12)
    path = eds.cache_path(str(tmp_path), E, P)
    old = "edslab-eds 3\n" + "".join(f"{n} {z:x}\n" for n, z in enumerate(seq.terms, start=1))
    open(path, "w").write(old + f"sha256 {hashlib.sha256(old.encode()).hexdigest()}\n")
    assert load_sequence(str(tmp_path), E, P, 12) is None
    assert save_sequence(str(tmp_path), seq) == path
    text = open(path).read()
    assert text.startswith("edslab-eds 5\n") and text.splitlines()[-1].startswith("blake2b ")
    assert load_sequence(str(tmp_path), E, P, 12).terms == seq.terms


def test_cache_refuses_a_short_file_before_hashing_it(tmp_path, monkeypatch):
    # the file's name takes one hash; a file with too few lines takes no other
    import _blake2

    hashed = []
    blake2b = _blake2.blake2b
    monkeypatch.setattr(_blake2, "blake2b", lambda *args, **kw: hashed.append(args) or blake2b(*args, **kw))
    save_sequence(str(tmp_path), fixture_sequence(12))
    for n_terms, calls in ((13, 1), (40, 1), (12, 2)):
        hashed.clear()
        loaded = load_sequence(str(tmp_path), E, P, n_terms)
        assert (loaded is None, len(hashed)) == (n_terms > 12, calls)


def test_cache_misses_a_valid_file_of_another_point(tmp_path):
    # the hash is right, but the terms are those of (1, 1, 1) on (-4, 4): only
    # the exact check of z_12 sees it (z_1 = 1 on both)
    other = save_sequence(str(tmp_path / "other"), generate_geometric(CurveQ(-4, 4), PointQ(1, 1, 1), 12))
    shutil.copy(other, eds.cache_path(str(tmp_path), E, P))
    assert load_sequence(str(tmp_path), E, P, 12) is None


def test_cache_round_trips_terms_past_the_decimal_limit(tmp_path):
    # z_87 of (13, 48, 1) on (8, 3) has 4,398 digits, past CPython's default
    # 4,300-digit int-to-str limit, which the decimal format raised on
    curve, point = CurveQ(8, 3), PointQ(13, 48, 1)
    seq = generate_geometric(curve, point, 87)
    assert seq.term(87).bit_length() > 4300 * math.log2(10)
    save_sequence(str(tmp_path), seq)
    assert load_sequence(str(tmp_path), curve, point, 87).terms == seq.terms


def test_a_cache_hit_converts_only_the_terms_it_returns(tmp_path, monkeypatch):
    # each returned term is read from its digits, and no term is converted to or from an int
    seq = fixture_sequence(30)
    save_sequence(str(tmp_path), seq)
    read = []
    monkeypatch.setattr(eds, "Decimal", lambda value: read.append(value) or Decimal(value))
    monkeypatch.setattr(eds, "int", _refuse_int, raising=False)
    loaded = load_sequence(str(tmp_path), E, P, 12)
    assert all(type(z) is Decimal for z in loaded.terms) and loaded.terms == seq.terms[:12]
    assert [text for text in read if isinstance(text, str)] == [str(z) for z in seq.terms[:12]]


def _refuse_int(*args):
    raise AssertionError("a term was converted to or from an int")


# a hex term, a sign, an exponent, a point, an underscore (which Decimal() reads) and no digits
@pytest.mark.parametrize("z11", ["1f", "-1", "1e5", "1.5", "1_0", ""])
def test_a_bad_term_past_the_requested_ones_is_a_malformed_miss(tmp_path, z11):
    # the file is hashed correctly, and z_1..z_7 are right
    from _blake2 import blake2b

    path = save_sequence(str(tmp_path), fixture_sequence(12))
    lines = open(path).read().splitlines(keepends=True)[:-1]
    lines[11] = f"11 {z11}\n"
    text = "".join(lines)
    open(path, "w").write(text + f"blake2b {blake2b(text.encode(), digest_size=32).hexdigest()}\n")
    assert eds._read_cached(path, E, P, 7) == (None, "malformed")


def test_a_cached_file_for_a_point_the_ladder_refuses_is_a_terms_miss(tmp_path, monkeypatch, capsys):
    # (0, 0) on y^2 = x^3 - x has order 2: w2 = 0, so the exact check of z_1
    # raises, and that is a miss; `eds gen` then refuses the point by name
    from _blake2 import blake2b

    from edslab.cli import main

    curve, point = CurveQ(-1, 0), PointQ(0, 0, 1)
    text = eds.CACHE_HEADER + "".join(f"{n} 1\n" for n in range(1, 4))
    with open(eds.cache_path(str(tmp_path), curve, point), "w") as fh:
        fh.write(text + f"blake2b {blake2b(text.encode(), digest_size=32).hexdigest()}\n")
    monkeypatch.setattr(edslab, "_TRACING", True)
    assert load_sequence(str(tmp_path), curve, point, 3) is None
    [span] = [r for r in map(json.loads, capsys.readouterr().err.splitlines()) if r["span"] == "eds.load_sequence"]
    assert (span["hit"], span["miss"]) == (False, "terms")
    monkeypatch.setattr(edslab, "_TRACING", False)
    code = main(["eds", "gen", "--curve", "-1", "0", "--point", "0", "0", "1", "--n", "3", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: point is torsion (order 2); the sequence degenerates\n")


def _count_ward_steps(monkeypatch):
    """Record each term Ward's recurrence computes: the eight of each `_double_block`,
    each `_ward_step` (of `_last_doubling` and `scalar_mul`), and the n - 4 of each
    `ward_terms`, wrapped where its callers look it up (`is_torsion` in elliptic,
    generation and `stream_mod_p` in eds).  Returns the list of steps."""
    steps = []
    step, block, terms = elliptic._ward_step, elliptic._double_block, elliptic.ward_terms
    monkeypatch.setattr(elliptic, "_ward_step", lambda w, m: steps.append(m) or step(w, m))
    monkeypatch.setattr(elliptic, "_double_block", lambda w, b: steps.extend(range(3 + b, 11 + b)) or block(w, b))
    for module in (elliptic, eds):
        monkeypatch.setattr(module, "ward_terms", lambda s, p, n: steps.extend(range(5, n + 1)) or terms(s, p, n))
    return steps


def test_warm_load_adds_no_points_and_takes_logarithmically_many_steps(tmp_path, monkeypatch):
    curve, point, n = CurveQ(1, -9), PointQ(2, 1, 1), 105
    seq = generate_geometric(curve, point, n)
    save_sequence(str(tmp_path), seq)

    def forbidden(*args):
        raise AssertionError("a warm load regenerated or added points")

    for module, name in ((elliptic, "scalar_mul"), (eds, "generate_ward")):
        monkeypatch.setattr(module, name, forbidden)
    steps = _count_ward_steps(monkeypatch)
    assert load_sequence(str(tmp_path), curve, point, n).terms == seq.terms
    # one ladder at 1 and one at n, 8 steps per bit
    assert 0 < len(steps) <= 8 * (math.log2(n) + 2)


def test_geometric_term_computes_three_terms_in_its_last_doubling(monkeypatch):
    # 8 terms per step of the ladder to n // 2, then only w_(n-1), w_n, w_(n+1)
    curve, point = CurveQ(-4, 4), PointQ(1, 1, 1)
    expected = generate_geometric(curve, point, 160).terms
    steps = _count_ward_steps(monkeypatch)
    for n in (1, 2, 3, 89, 160):
        steps.clear()
        assert geometric_term(curve, point, n) == expected[n - 1]
        assert len(steps) == 8 * len(bin(n // 2)[2:]) + 3, n


# Ayad points on (1, -9), (8, 3), (-4, 4) and (0, 3), and a gcd-path point
EXACT_LADDER_FIXTURES = [
    (CurveQ(1, -9), PointQ(2, 1, 1)),
    (CurveQ(8, 3), PointQ(13, 48, 1)),
    (CurveQ(-4, 4), PointQ(1, 1, 1)),
    (E, P),
    (CurveQ(0, 17), PointQ(-2, 3, 1)),
]


@pytest.mark.parametrize("curve,point", EXACT_LADDER_FIXTURES)
def test_exact_ladder_matches_the_recurrence_and_the_geometric_terms(curve, point):
    n_max = 120
    seeds = division_poly_seeds(curve, point)
    ward = [0, *generate_ward(WardSeed(*seeds), n_max + 4).terms]
    geo = generate_geometric(curve, point, n_max).terms
    for n in range(0, n_max + 1):
        block = [ward[m] if m >= 0 else -ward[-m] for m in range(n - 3, n + 5)]  # w_{-m} = -w_m
        assert ladder_block(seeds, None, n) == block, n
        if n:
            assert geometric_term(curve, point, n) == geo[n - 1], n
    chord_tangent = _chord_tangent_terms(curve, point, 30)
    for n in (1, 2, 7, 30):
        assert geometric_term(curve, point, n) == chord_tangent[n - 1]


def test_exact_ladder_reports_an_inexact_division():
    # w5 = -2/27 on the seed (3, 1, 1, 1), as in generate_ward
    with pytest.raises(InexactDivisionError) as exc:
        ladder_block((3, 1, 1, 1), None, 5)
    assert exc.value.index == 5


def _reference_terms(seeds, p, n):
    """w_0..w_n, each from its own `_ward_step`: divided exactly over Z, or times an inverse mod p."""
    w = [0, *(seeds if p is None else (s % p for s in seeds))]
    den = (w[2] * w[1] ** 2, w[1] ** 3)
    for m in range(5, n + 1):
        num = elliptic._ward_step(w, m)
        w.append(elliptic._exact_div(num, den[m & 1], m) if p is None else num * pow(den[m & 1], -1, p) % p)
    return w[: n + 1]


# the kernel's seeds, those of the exact-ladder points, two with zero terms from 4 and 5 on,
# and (3, 1, 1, 1), whose w_5 = -2/27 is inexact over Z
@pytest.mark.parametrize(
    "seeds",
    [
        *KERNEL_SEEDS,
        *(division_poly_seeds(curve, point) for curve, point in EXACT_LADDER_FIXTURES),
        (1, 1, -1, 0),
        (1, 1, 1, 1),
        (3, 1, 1, 1),
    ],
)
def test_ward_terms_match_one_ward_step_a_term_over_z_and_mod_p(seeds):
    rng = random.Random(50)
    primes = [p for p in _kernel_primes(seeds, rng) if seeds[0] * seeds[1] % p]
    for n in [*range(1, 13), 60, 121]:
        assert _outcome(ward_terms, seeds, None, n) == _outcome(_reference_terms, seeds, None, n), (seeds, n)
        for p in primes:
            assert ward_terms(seeds, p, n) == _reference_terms(seeds, p, n), (seeds, p, n)


@pytest.mark.parametrize("seeds, p", [((1, 0, 1, 0), None), ((0, 2, 1, 2), None), ((1, 7, 1, 7), 7), ((3, 1, 1, 1), 3)])
def test_ward_terms_refuse_the_seeds_that_the_ladder_refuses(seeds, p):
    # w1*w2 = 0 over Z, or p | w1*w2: no step can divide, in the same words as the ladder's
    words = "w1 and w2 must be non-zero" if p is None else f"stream modulo {p} needs p coprime to w1*w2"
    refusal = ("ValueError", words)
    for n in (1, 4, 12):
        assert _outcome(ward_terms, seeds, p, n) == _outcome(ladder_block, seeds, p, n) == refusal


def test_saved_terms_are_the_decimal_digits_of_each_term(tmp_path):
    # z_1..z_100 of a pool curve, generated as ints, then as Decimals, and terms at the
    # edges of a 19-digit word and past the int-to-str limit, which str() of an int refuses
    curve, point = CurveQ(-4, 4), PointQ(1, 1, 1)
    edges = [0, 1, 9, 10, 10**19 - 1, 10**19, 10**20 + 7]
    for number in (int, Decimal):
        seq = generate_geometric(curve, point, 100, number)
        seq.terms += [number(z) for z in edges] + [10**4400 + 1]
        path = save_sequence(str(tmp_path), seq)
        lines = open(path).read().splitlines()[1:-1]
        expected = [str(z) for z in generate_geometric(curve, point, 100).terms + edges] + ["1" + "0" * 4399 + "1"]
        assert lines == [f"{n} {digits}" for n, digits in enumerate(expected, start=1)]


def test_failed_save_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    seq = fixture_sequence(12)
    path = save_sequence(str(tmp_path), seq)
    before = open(path).read()
    longer = fixture_sequence(20)
    longer.terms[15] = object()  # a term that has no digits
    with pytest.raises(TypeError):
        save_sequence(str(tmp_path), longer)

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        save_sequence(str(tmp_path), fixture_sequence(20))
    assert os.listdir(tmp_path) == [os.path.basename(path)]
    assert open(path).read() == before
    assert load_sequence(str(tmp_path), E, P, 12).terms == seq.terms


def test_growth_rate_stabilizes():
    # diagnostic: log z_n / n^2 settles near a positive constant
    seq = fixture_sequence(40)
    cs = {n: math.log(seq.term(n)) / n**2 for n in (10, 20, 40)}
    assert cs[40] > 0
    assert abs(cs[40] - cs[20]) < 0.01
    assert abs(cs[40] - cs[20]) < abs(cs[40] - cs[10]) + 0.005
