import math
import os

import pytest

from edslab import elliptic

from edslab.eds import (
    InexactDivisionError,
    WardSeed,
    _companion_gcd,
    _minimal_stream_period,
    division_poly_seeds,
    eds_period_mod_p,
    generate_geometric,
    generate_ward,
    load_sequence,
    primitive_divisor_scan,
    save_sequence,
    stream_mod_p,
    ward_period,
)
from edslab.elliptic import (
    TORSION_SEARCH_BOUND,
    CurveFp,
    CurveQ,
    PointQ,
    add,
    count_points,
    is_torsion,
    point_order_fp,
    reduce_point,
    scalar_mul,
)
from edslab.ntkernel import sieve_primes

E = CurveQ(0, 3)
P = PointQ(1, 2, 1)


def fixture_sequence(n=30):
    return generate_geometric(E, P, n)


def test_geometric_first_terms():
    seq = fixture_sequence(6)
    assert seq.term(1) == 1
    assert seq.term(2) == 4  # 2P = (-23, -11, 4)
    assert all(t > 0 for t in seq.terms)


def test_geometric_rejects_torsion():
    with pytest.raises(ValueError):
        generate_geometric(CurveQ(0, -1), PointQ(1, 0, 1), 5)


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
                for k in (1, 2, 3):
                    point = scalar_mul(k, PointQ(x, y, 1), curve)
                    terms = generate_geometric(curve, point, 12).terms
                    assert terms == _chord_tangent_terms(curve, point, 12), (a, b, point)
                    classes[_companion_gcd(curve, point) == 1] += 1
    assert classes[True] > 50 and classes[False] > 50, classes


@pytest.mark.parametrize("curve,point", [(E, P), (CurveQ(0, 17), PointQ(-2, 3, 1))])
def test_geometric_generation_does_no_point_addition(curve, point, monkeypatch):
    # only the torsion check walks multiples with add, at most 15 of them
    calls = []

    def budgeted_add(p, q, c):
        calls.append(1)
        if len(calls) > TORSION_SEARCH_BOUND - 1:
            raise AssertionError("generate_geometric added points beyond the torsion check")
        return add(p, q, c)

    monkeypatch.setattr(elliptic, "add", budgeted_add)
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


@pytest.mark.parametrize("p,rank,period", [(1009, 237, 17064), (3001, 1554, 2331000)])
def test_ward_period_matches_windowed_search_large_p(p, rank, period):
    result = eds_period_mod_p(fixture_sequence(4), p)
    assert (result.rank, result.period) == (rank, period)
    assert _windowed_period(division_poly_seeds(E, P), p, rank, period) == period


def test_period_confirmed_exactly_from_twice_the_period():
    seq = fixture_sequence(4)
    period = eds_period_mod_p(seq, 13).period
    assert eds_period_mod_p(seq, 13, horizon=2 * period).period == period
    assert eds_period_mod_p(seq, 13, horizon=2 * period - 1).status == "unconfirmed"
    with pytest.raises(ValueError, match="horizon"):
        eds_period_mod_p(seq, 13, horizon=0)


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


def test_period_unconfirmed_when_horizon_small():
    result = eds_period_mod_p(fixture_sequence(5), 5, horizon=10)
    assert result.status == "unconfirmed"
    assert result.period is None


def test_period_ward_source():
    seq = generate_ward(WardSeed(1, 1, -1, 1), 6)
    result = eds_period_mod_p(seq, 7, horizon=512)
    assert result.confirmed
    stream = stream_mod_p((1, 1, -1, 1), 7, 2 * result.period)
    assert all(stream[n + result.period] == stream[n] for n in range(1, result.period + 1))


def test_period_rejects_bad_primes():
    with pytest.raises(ValueError):
        eds_period_mod_p(fixture_sequence(5), 3)  # 3 divides the discriminant
    with pytest.raises(ValueError):
        eds_period_mod_p(fixture_sequence(5), 4)


def test_period_rejects_point_outside_companion_model():
    # gcd(2y, 3x^2 + a*z^4) = gcd(6, 12) = 6: |w_n| / z_n grows by factors of 2
    # and 3, and the period 39 of the stream mod 7 is not a period of z_n
    curve, point = CurveQ(0, 17), PointQ(-2, 3, 1)
    geo = generate_geometric(curve, point, 40)
    ward = generate_ward(WardSeed(*division_poly_seeds(curve, point)), 40)
    assert any(abs(ward.term(n)) != geo.term(n) for n in range(1, 41))
    assert (geo.term(40) % 7, geo.term(1) % 7) == (3, 1)
    with pytest.raises(ValueError, match=r"singular modulo \[2, 3\]"):
        eds_period_mod_p(geo, 7)


def test_primitive_divisors_fixture():
    seq = fixture_sequence(20)
    reports = primitive_divisor_scan(seq)
    assert reports[0].primes == [1] or reports[0].primitive_part == 1  # z_1 = 1
    # all prime factors of z_2 = 4 are primitive
    assert reports[1].primes == [2]
    missing = [r.n for r in reports if not r.has_primitive]
    # Zsigmondy behaviour: only finitely many early terms lack one
    assert all(n <= 10 for n in missing)
    assert sum(1 for r in reports if r.has_primitive) >= 15
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
    reports = primitive_divisor_scan(seq)
    for r in reports:
        for q in r.primes:
            assert all(seq.term(m) % q != 0 for m in range(1, r.n))


def test_largest_prime_grows():
    seq = fixture_sequence(18)
    reports = primitive_divisor_scan(seq)
    best = 0
    records = []
    for r in reports:
        if r.primes:
            largest = max(r.primes)
            if largest > best:
                best = largest
                records.append(r.n)
    assert len(records) >= 6  # new record primes keep appearing


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
    assert text.startswith("edslab-eds 2\n") and text.splitlines()[-1].startswith("sha256 ")
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


class _Unprintable(int):
    def __format__(self, spec):
        raise ValueError("Exceeds the limit for integer string conversion")


def test_failed_save_keeps_previous_file_and_leaves_no_temp(tmp_path):
    seq = fixture_sequence(12)
    path = save_sequence(str(tmp_path), seq)
    before = open(path).read()
    longer = fixture_sequence(20)
    longer.terms[15] = _Unprintable(longer.terms[15])
    with pytest.raises(ValueError, match="limit"):
        save_sequence(str(tmp_path), longer)
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
