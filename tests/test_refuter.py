import hashlib
import json
import os
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import islice

import pytest

import edslab
from edslab import eds, elliptic, lrs, ntkernel, refuter
from edslab.eds import (
    WardSeed,
    division_poly_seeds,
    generate_geometric,
    generate_ward,
    stream_mod_p,
)
from edslab.elliptic import CurveQ, PointQ
from edslab.galois_density import empirical_density
from edslab.lrs import FIBONACCI, LrsSpec, eval_mod
from edslab.ntkernel import next_prime
from edslab.refuter import (
    MAX_MISMATCH_INDEX,
    MAX_WITNESS_P,
    WitnessCertificate,
    choose_q,
    direct_falsify,
    find_witness,
    validate_q,
    verify_certificate,
)
from test_cli import factoring_gives_up_past
from test_elliptic import multiples

# non-CM fixture with |w_n| = z_n: the certificate's stream is literally
# the z-sequence up to sign
E = CurveQ(-4, 4)
P = PointQ(1, 1, 1)


def test_fixture_integrity():
    assert E.disc == 176
    geo = generate_geometric(E, P, 60)
    ward = generate_ward(WardSeed(*division_poly_seeds(E, P)), 60)
    assert all(abs(ward.term(n)) == geo.term(n) for n in range(1, 61))


def test_choose_q_skips_mersenne_divisors():
    # k = 2: q = 3 divides 2^2 - 1, so the default choice is 5
    assert choose_q(FIBONACCI, E) == 5
    with pytest.raises(ValueError):
        validate_q(3, FIBONACCI, E)
    with pytest.raises(ValueError):
        validate_q(2, FIBONACCI, E)
    with pytest.raises(ValueError):
        validate_q(7, FIBONACCI, CurveQ(0, 7))  # divides the discriminant 27*49


TRIBONACCI = LrsSpec(3, (1, 1, 1), (1, 1, 2))


def _curve_with_j(j: int) -> CurveQ:
    """A curve of j-invariant j: y^2 = x^3 + 3j(1728 - j)x + 2j(1728 - j)^2 off 0 and 1728."""
    return {0: CurveQ(0, 1), 1728: CurveQ(1, 0)}.get(j) or CurveQ(3 * j * (1728 - j), 2 * j * (1728 - j) ** 2)


def test_the_cm_table_names_the_discriminant_of_each_rational_cm_curve():
    for j, d in elliptic.CM_DISCRIMINANTS.items():
        assert _curve_with_j(j).cm_discriminant == d
    assert CurveQ(0, 17).cm_discriminant == -3 and CurveQ(-2, 0).cm_discriminant == -4
    assert E.cm_discriminant is None and CurveQ(1, 1).cm_discriminant is None


def test_a_q_inert_in_the_cm_field_divides_point_counts_only_at_plus_minus_one():
    # the fact behind validate_q's CM rule, at every good 5 <= p < 400 on a
    # curve of each CM j-invariant, with every inert q below 20
    hits = 0
    for j, d in elliptic.CM_DISCRIMINANTS.items():
        curve = _curve_with_j(j)
        inert = [q for q in (3, 5, 7, 11, 13, 17, 19) if ntkernel.legendre_symbol(d, q) == -1]
        for p in ntkernel.iter_primes(400, 5):
            if curve.disc % p:
                n_points = elliptic.count_points_naive(elliptic.CurveFp.from_curve(curve, p))[0]
                for q in inert:
                    if n_points % q == 0:
                        hits += 1
                        assert p % q in (1, q - 1), (j, p, q)
    assert hits > 100


def test_validate_q_refuses_a_q_inert_in_the_cm_field():
    # (0,17) has CM by Q(sqrt(-3)): 5 and 11 are inert, 7 and 13 split
    curve = CurveQ(0, 17)
    with pytest.raises(ValueError, match=r"q=5 is inert in the CM field Q\(sqrt\(-3\)\)"):
        validate_q(5, FIBONACCI, curve)
    assert choose_q(FIBONACCI, curve) == 7
    assert choose_q(LrsSpec(3, (1, 1, 1), (0, 0, 1)), curve) == 13  # 7 | 2^3 - 1, 11 inert
    # the class p = -1 or 3 (mod q) keeps an inert q: a supersingular p has #E = p + 1, and #E(F_3) = 7 can occur
    validate_q(5, LrsSpec(1, (2,), (1,)), curve, a_target=5)
    validate_q(5, FIBONACCI, curve, a_target=4)


def test_validate_q_takes_the_order_of_a_minus_one_modulo_q():
    # the finder scans p = a - 1 (mod q), so q must not divide (a - 1)^j - 1
    # for j <= k: ord_q(a - 1) > k, which is the rule on 2^j - 1 only at a = 3
    for a in range(2, 12):
        for q in (3, 5, 7, 13, 17, 19, 23):  # 11 divides the discriminant 176
            orders = [j for j in range(1, q) if pow(a - 1, j, q) == 1]
            admissible = (a - 1) % q != 0 and orders[0] > TRIBONACCI.order
            try:
                validate_q(q, TRIBONACCI, E, a_target=a)
                refused = False
            except ValueError:
                refused = True
            assert refused != admissible, (q, a)
    with pytest.raises(ValueError, match=r"^q=7 divides 2\^3 - 1$"):
        validate_q(7, TRIBONACCI, E)
    with pytest.raises(ValueError, match="at least 2"):
        validate_q(5, TRIBONACCI, E, a_target=1)
    with pytest.raises(ValueError, match="determinant class vanish"):
        validate_q(5, TRIBONACCI, E, a_target=6)
    assert choose_q(TRIBONACCI, E, a_target=5) == 13  # 4^2 = 1 (mod 5), 4^3 = 1 (mod 7), 11 | 176
    for a in (1, 2):  # no q is admissible: the search must not run forever
        with pytest.raises(ValueError):
            choose_q(TRIBONACCI, E, a_target=a)


def test_find_witness_certifies_a_q_the_rule_on_two_refused():
    # ord_7(3) = 6 > 3, though 7 divides 2^3 - 1
    result = find_witness(E, P, TRIBONACCI, 7, a_target=4, p_max=20_000)
    assert result.found and verify_certificate(result.certificate).ok
    assert result.certificate.trace % 7 == 4


def test_find_witness_refuses_a_q_the_rule_on_two_admitted():
    # ord_13(3) = 3: every p = 3 (mod 13) has 13 | p^3 - 1
    with pytest.raises(ValueError, match=r"^q=13 divides 3\^3 - 1$"):
        find_witness(E, P, TRIBONACCI, 13, a_target=4, p_max=20_000)


def test_find_witness_fixture():
    result = find_witness(E, P, FIBONACCI, 5, p_max=10_000)
    assert result.found
    cert = result.certificate
    assert cert.p == 7
    assert cert.q == 5
    assert cert.point_order % 5 == 0
    assert cert.tz_period % 5 == 0
    assert cert.tu_period % 5 != 0
    assert cert.n_points == cert.p - cert.trace + 1
    assert len(cert.mismatches) >= 10


def test_finder_memory_follows_the_primes_it_scans():
    # the witness is p = 7 at any p_max: the prime source must not sieve to p_max first
    tracemalloc.start()
    try:
        result = find_witness(E, P, FIBONACCI, 5, p_max=10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.certificate.p == 7
    assert peak < 2 * 10**6


def test_find_witness_deterministic():
    a = find_witness(E, P, FIBONACCI, 5, p_max=5_000)
    b = find_witness(E, P, FIBONACCI, 5, p_max=5_000)
    assert a.certificate.to_json() == b.certificate.to_json()
    assert a.stats == b.stats


def _assert_certified_as_given(curve, point, spec, q, p_max, p):
    """The certificate names the given point, verifies after a JSON round
    trip, and fails only `mismatches` once one residue is edited."""
    cert = find_witness(curve, point, spec, q, p_max=p_max).certificate
    assert cert.point == point and cert.p == p
    payload = json.loads(cert.to_json())
    assert verify_certificate(WitnessCertificate.from_json(json.dumps(payload))).ok
    first = payload["mismatches"][0]
    first["z_mod"] = str((int(first["z_mod"]) + 1) % cert.p)
    verdict = verify_certificate(WitnessCertificate.from_json(json.dumps(payload)))
    assert verdict.failures == ["mismatches"]


@pytest.mark.parametrize(
    "spec,q,p",
    [
        (LrsSpec(2, (0, 1), (0, 2)), 5, 7),  # 1 + (-1)^n: roots {1, -1}
        (LrsSpec(3, (3, 4, -12), (1, 1, 1)), 5, 7),  # roots {2, -2, 3}
        (LrsSpec(3, (2, 1, -2), (1, 1, 1)), 5, 7),  # roots {1, -1, 2}
        (LrsSpec(4, (0, 3, 0, -1), (1, 1, 1, 1)), 13, 223),  # x^4 - 3x^2 + 1: roots +-phi, +-1/phi
    ],
)
def test_find_witness_certifies_degenerate_spec(spec, q, p):
    # the argument never uses non-degeneracy: a root-of-unity ratio of
    # characteristic roots changes neither the zeros of z_n mod p nor tu
    assert lrs.is_degenerate(spec)[0]
    _assert_certified_as_given(E, P, spec, q, 20_000, p)


def test_find_witness_rejects_torsion_point():
    # on the curve, y = 0 forces z = 1, so the torsion rules refuse every such
    # point as order 2 before any prime is scanned
    with pytest.raises(ValueError, match=r"^point is torsion \(order 2\)$"):
        find_witness(CurveQ(0, -1), PointQ(1, 0, 1), FIBONACCI, 5, p_max=100)


@pytest.mark.parametrize(
    "point", [PointQ(2, 1, 1), PointQ(1, 3, 1), PointQ(1, 0, 2)], ids=["2,1,1", "1,3,1", "y=0,z=2"]
)
def test_find_witness_refuses_a_point_off_the_curve(point):
    # the first two died on a bare assert at their first candidate, which
    # python -O strips; the third, with y = 0 and z > 1, was called 2-torsion
    assert not E.contains(point)
    with pytest.raises(ValueError, match="^point is not on the curve$"):
        find_witness(E, point, FIBONACCI, 5, p_max=2000)


def test_find_witness_exhaustion_report():
    result = find_witness(E, P, FIBONACCI, 5, p_max=6)
    assert not result.found
    assert result.certificate is None
    stats = result.stats
    assert stats["scanned"] == 3  # 2, 3, 5
    assert stats["excluded"] >= 2  # p = 2 and p = q = 5
    assert sum(v for k, v in stats.items() if k not in ("scanned", "candidates")) == stats["scanned"]


def test_certificate_roundtrip_and_verify():
    result = find_witness(E, P, FIBONACCI, 5, p_max=10_000)
    cert = result.certificate
    text = cert.to_json()
    parsed = WitnessCertificate.from_json(text)
    assert parsed.to_json() == text
    assert parsed == cert
    verdict = verify_certificate(parsed)
    assert verdict.ok, verdict.failures


def test_certificate_json_is_canonical_decimal_strings():
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    payload = json.loads(cert.to_json())
    assert payload["schema_version"] == "1"
    assert payload["p"] == "7"
    assert isinstance(payload["tz_period"], str)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == cert.to_json()


def _mutations(payload):
    """Twelve single-field corruptions, each of which must fail verification."""
    def m(path, value):
        clone = json.loads(json.dumps(payload))
        node = clone
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return ".".join(map(str, path)), clone

    tz = int(payload["tz_period"])
    tu = int(payload["tu_period"])
    yield m(["curve", "a"], "-5")
    yield m(["point", "x"], "2")
    yield m(["point", "y"], "3")
    yield m(["lrs", "coeffs"], ["1", "2"])
    yield m(["q"], "7")
    yield m(["p"], "11")
    yield m(["trace"], str(int(payload["trace"]) + 1))
    yield m(["n_points"], str(int(payload["n_points"]) + 5))
    yield m(["point_order"], str(int(payload["point_order"]) * 2))
    yield m(["tz_period"], str(tz * int(payload["q"])))
    yield m(["tu_period"], str(tu * int(payload["q"])))
    yield m(["mismatches", 0, "n"], payload["mismatches"][0]["n"])  # placeholder, replaced below


def test_mutation_suite_all_caught():
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    assert verify_certificate(cert).ok
    payload = json.loads(cert.to_json())
    cases = list(_mutations(payload))[:-1]
    # 12th mutation: swap a mismatch index for one where the sequences agree
    geo = generate_geometric(E, P, 60)
    from edslab.lrs import eval_mod

    p = cert.p
    agreeing = next(
        n
        for n in range(1, 61)
        if (geo.term(n) - eval_mod(FIBONACCI, n * n, p)) % p == 0
        or (geo.term(n) + eval_mod(FIBONACCI, n * n, p)) % p == 0
    )
    clone = json.loads(json.dumps(payload))
    clone["mismatches"][0] = {
        "n": str(agreeing),
        "z_mod": str(geo.term(agreeing) % p),
        "u_mod": str(eval_mod(FIBONACCI, agreeing * agreeing, p)),
    }
    cases.append(("mismatches.agreeing_index", clone))
    assert len(cases) == 12
    for name, mutated in cases:
        try:
            parsed = WitnessCertificate.from_json(json.dumps(mutated))
        except ValueError:
            continue  # malformed enough to be rejected at parse time
        verdict = verify_certificate(parsed)
        assert not verdict.ok, f"mutation {name} was not caught"


@pytest.mark.parametrize("window", [(5, 3), (1, 10**30)])
def test_verifier_checks_tu_window(window):
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    assert cert.tu_window == (1, 24)
    edited = WitnessCertificate.from_json(replace(cert, tu_window=window).to_json())
    assert verify_certificate(edited).failures == ["tu_window"]


def test_verifier_failures_name_fields():
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    payload = json.loads(cert.to_json())
    payload["tu_period"] = str(int(payload["tu_period"]) * int(payload["q"]))
    verdict = verify_certificate(WitnessCertificate.from_json(json.dumps(payload)))
    assert "tu_period" in verdict.failures or "q_not_divides_tu" in verdict.failures


def test_direct_falsify_finds_counterexamples():
    indices = direct_falsify(E, P, FIBONACCI, 1, 7, 50)
    assert indices, "square-sampled Fibonacci cannot shadow the fixture sequence"
    assert all(1 <= n <= 50 for n in indices)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_direct_falsify_matches_exact_terms_when_z1_is_not_one(p):
    # z_n = 4*|w_n| for (25, -3, 4): comparing w_n itself reports wrong indices
    curve, point = CurveQ(-5, 4), PointQ(25, -3, 4)
    geo = generate_geometric(curve, point, 30)
    exact = [
        n
        for n in range(1, 31)
        if refuter._mismatch_residue(geo.term(n) % p, eval_mod(FIBONACCI, n * n, p), p)
    ]
    assert direct_falsify(curve, point, FIBONACCI, 1, p, 30) == exact


def test_direct_falsify_rejects_bad_prime():
    with pytest.raises(ValueError):
        direct_falsify(E, P, FIBONACCI, 1, 11, 10)  # 11 divides disc = 176


def test_direct_falsify_refuses_a_point_off_the_curve():
    # it listed mismatch indices of a sequence that belongs to no point
    with pytest.raises(ValueError, match="^point is not on the curve$"):
        direct_falsify(E, PointQ(1, 3, 1), FIBONACCI, 1, 7, 10)


def test_mismatch_residue_ignores_the_sign():
    stream = [n % 11 for n in range(100)]
    assert not any(refuter._mismatch_residue(x, x, 11) for x in stream)
    assert not any(refuter._mismatch_residue(x, (-x) % 11, 11) for x in stream)
    assert refuter._mismatch_residue(1, 2, 11)


def test_direct_falsify_matches_the_stream_on_seeded_windows():
    # w_n per index from the ladder against w_1..w_hi from the stream, on
    # random windows with start <= 5,000, z1 = 4 for the second point
    rng = random.Random(2016)
    fixtures = [(E, P), (CurveQ(-5, 4), PointQ(25, -3, 4)), (CurveQ(-6, 6), P)]
    specs = [FIBONACCI, LrsSpec(3, (1, 1, 1), (1, 1, 2)), LrsSpec(2, (3, -1), (1, 5))]
    for _ in range(12):
        (curve, point), spec = rng.choice(fixtures), rng.choice(specs)
        p = rng.choice([p for p in (7, 13, 17, 19, 23, 29, 31, 37) if curve.disc * point.z * point.y % p])
        start, window = rng.randint(1, 5_000), rng.randint(1, 300)
        hi = start + window - 1
        stream = stream_mod_p(division_poly_seeds(curve, point), p, hi)
        expected = [
            n
            for n in range(start, hi + 1)
            if refuter._mismatch_residue(point.z * stream[n] % p, eval_mod(spec, n * n, p), p)
        ]
        assert direct_falsify(curve, point, spec, start, p, window) == expected, (curve, spec, p, start)


def test_direct_falsify_holds_no_stream():
    # the last 100 indices below the index bound: w_1..w_(10^6) mod p held
    # 78.8 MB; the ladder holds one block at a time
    tracemalloc.start()
    try:
        direct_falsify(E, P, FIBONACCI, refuter.MAX_FALSIFY_INDEX - 99, 10_007, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_constructed_agreement_prefix_then_mismatch():
    # an LRS rigged to match z_{n} for small n cannot keep it up
    geo = generate_geometric(E, P, 12)
    # constant spec equal to z_1 = 1: matches at n = 1 (u_1 = 1) and wherever z = +-1
    spec = LrsSpec(1, (1,), (1,))
    mism = direct_falsify(E, P, spec, 2, 13, 30)
    assert mism
    assert min(mism) >= 2


def test_second_fixture_roundtrip():
    # a second curve/spec pair exercises the pipeline off the main fixture
    curve = CurveQ(-6, 6)
    point = PointQ(1, 1, 1)
    spec = LrsSpec(3, (1, 1, 1), (1, 1, 2))  # tribonacci
    q = choose_q(spec, curve)
    assert q == 5
    result = find_witness(curve, point, spec, q, p_max=20_000)
    assert result.found
    verdict = verify_certificate(WitnessCertificate.from_json(result.certificate.to_json()))
    assert verdict.ok, verdict.failures


@pytest.mark.parametrize(
    "curve,point,spec",
    [
        (CurveQ(-5, 2), PointQ(-2, 2, 1), FIBONACCI),
        (CurveQ(-3, -1), PointQ(2, 1, 1), LrsSpec(2, (1, 1), (1, 3))),  # Lucas
        (CurveQ(-6, 6), PointQ(1, 1, 1), LrsSpec(3, (0, 1, 1), (1, 1, 1))),  # Padovan
    ],
)
def test_soundness_across_fixtures(curve, point, spec):
    q = choose_q(spec, curve)
    result = find_witness(curve, point, spec, q, p_max=50_000)
    assert result.found, result.stats
    roundtrip = WitnessCertificate.from_json(result.certificate.to_json())
    verdict = verify_certificate(roundtrip)
    assert verdict.ok, verdict.failures


def test_verifier_recounts_independently_of_the_finder(monkeypatch):
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    monkeypatch.setattr(refuter, "count_points", lambda cfp: (cfp.p + 2, -1))
    verdict = verify_certificate(cert)
    assert verdict.ok, verdict.failures


def _no_work(*args, **kwargs):
    raise AssertionError("the verifier did work before bounding it")


@pytest.mark.parametrize(
    "field,edit",
    [
        ("tz_window", lambda c, cap: replace(c, tz_window=(1, cap + 1))),
        ("mismatch_index", lambda c, cap: replace(c, mismatches=[(MAX_MISMATCH_INDEX + 1, 0, 1)])),
        ("mismatch_index", lambda c, cap: replace(c, mismatches=[(0, 0, 1)])),
        ("mismatch_index", lambda c, cap: replace(c, mismatches=c.mismatches[:1] * 2)),
    ],
)
def test_verifier_bounds_work_before_starting(monkeypatch, field, edit):
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    order, p = cert.point_order, cert.p
    assert cert.tz_window[1] == 2 * order * (p - 1) + 2 * order + 16
    assert MAX_MISMATCH_INDEX >= refuter.DEFAULT_MISMATCH_LIMIT
    bad = edit(cert, cert.tz_window[1])
    monkeypatch.setattr(refuter, "ladder_block", _no_work)
    monkeypatch.setattr(refuter, "ward_period", _no_work)
    monkeypatch.setattr(refuter, "generate_geometric", _no_work)
    verdict = verify_certificate(bad)
    assert not verdict.ok
    assert verdict.failures == [field]


def test_verifier_bounds_mismatch_indices_by_the_finders_limit(monkeypatch):
    # the finder lists mismatches only among z_1..z_60, so index 61 is
    # refused before the exact prefix to it is generated
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    monkeypatch.setattr(refuter, "generate_geometric", _no_work)
    verdict = verify_certificate(replace(cert, mismatches=[*cert.mismatches[1:], (61, 0, 1)]))
    assert verdict.failures == ["mismatch_index"]


def test_verifier_bounds_the_walk_of_u(monkeypatch):
    # Fibonacci has period 16 mod 7, past a walk bound of 10
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    monkeypatch.setattr(lrs, "MAX_WALK", 10)
    verdict = verify_certificate(cert)
    assert verdict.failures == ["lrs_period"]
    assert verdict.checks[-1].detail == "the recurrence mod 7 does not return within 10 steps"


def test_finder_skips_a_prime_past_the_walk_bound(monkeypatch):
    # p = 7 is the witness unbounded; no Fibonacci period mod a scanned p is <= 10
    monkeypatch.setattr(lrs, "MAX_WALK", 10)
    result = find_witness(E, P, FIBONACCI, 5, p_max=2_000)
    assert not result.found
    assert result.stats["period_unconfirmed"] == result.stats["candidates"] > 0


def test_finder_skips_a_prime_whose_factoring_gives_up(monkeypatch):
    # every candidate p has p^5 > lrs.MAX_WALK, so the period of u mod p is
    # read from x^t mod chi, stripping primes from a bound above MAX_WALK
    monkeypatch.setattr(ntkernel, "factorize", factoring_gives_up_past(lrs.MAX_WALK))
    result = find_witness(E, P, LrsSpec(5, (1, 1, 0, 0, 1), (1, 1, 1, 1, 1)), 13, p_max=2_000)
    assert not result.found
    assert result.stats["period_unconfirmed"] == result.stats["candidates"] > 1


def test_finder_counts_points_only_at_candidates(monkeypatch):
    # q | ord(P mod p) is decided without #E(F_p); the finder counts points
    # only at a candidate, whose certificate states #E.  (0,3) has CM by
    # Q(sqrt(-3)), where 5 is inert, so its class p = 3 (mod 5) holds no
    # witness: 3 is bad, and q | #E(F_p) needs p = +-1 (mod 5) above it
    calls = []
    count = refuter.count_points
    monkeypatch.setattr(refuter, "count_points", lambda cfp: calls.append(cfp.p) or count(cfp))
    exhausted = find_witness(CurveQ(0, 3), PointQ(1, 2, 1), FIBONACCI, 5, a_target=4, p_max=10_000)
    assert not exhausted.found and exhausted.stats["order"] > 0
    assert exhausted.stats["candidates"] == 0 and calls == []
    found = find_witness(E, P, FIBONACCI, 5, p_max=10_000)
    assert found.found and len(calls) == found.stats["candidates"] == 1
    calls.clear()
    monkeypatch.setattr(lrs, "MAX_WALK", 10)  # every candidate below 2000 is skipped
    skipped = find_witness(E, P, FIBONACCI, 5, p_max=2_000)
    assert len(calls) == skipped.stats["candidates"] > 1


def test_verifier_bounds_p_before_the_recount(monkeypatch):
    # the finder never certifies a p above MAX_WITNESS_P, and 1,000,003 is
    # the least prime above it; a larger p is refused before any O(p) work,
    # and p_prime fails it without a primality test
    assert MAX_WITNESS_P == 999_997
    assert next_prime(MAX_WITNESS_P) == 1_000_003
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    monkeypatch.setattr(refuter, "count_points_naive", _no_work)
    verdict = verify_certificate(replace(cert, p=1_000_003))
    assert verdict.failures == ["p_prime", "p_bound"]


def test_finder_certifies_no_p_above_the_verifiers_bound(monkeypatch):
    # p = 7 is the witness unbounded; the scan stops at the bound, and of
    # the primes 2, 3, 5 below it all but p = 3 are excluded before their
    # order is looked at
    monkeypatch.setattr(elliptic, "q_divides_order", _no_work)
    monkeypatch.setattr(refuter, "MAX_WITNESS_P", 6)
    result = find_witness(E, P, FIBONACCI, 5, p_max=200)
    assert not result.found and result.stats["candidates"] == 0
    assert result.stats["scanned"] == 3
    assert result.stats["excluded"] == result.stats["scanned"] - 1  # all but p = 3


def _trace(monkeypatch):
    """Turn tracing on in this process, as EDSLAB_TRACE=1 at import would."""
    monkeypatch.setattr(edslab, "_TRACING", True)


def _spans(capsys, name: str) -> list[dict]:
    """The records of the span name written to stderr since the last read."""
    return [r for r in map(json.loads, capsys.readouterr().err.splitlines()) if r["span"] == name]


def test_exhausted_finder_counts_what_the_density_scan_counts(monkeypatch, capsys):
    # one scan of the witness class: with no candidate confirmed, the finder
    # rejects each prime under the test the density scan does, and its
    # candidates are the scan's hits, with one worker or two
    monkeypatch.setattr(refuter, "ward_period", lambda *args: None)
    result = find_witness(E, P, FIBONACCI, 5, p_max=3000, exclusions=(7,))
    assert not result.found
    assert result.stats == {
        "scanned": 430, "excluded": 3, "divides_invariants": 1, "residue_class": 316, "order": 91,
        "period_unconfirmed": 19, "too_few_mismatches": 0, "candidates": 19,
    }
    finder = [result.stats[k] for k in ("excluded", "divides_invariants", "residue_class", "order", "candidates")]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _trace(monkeypatch)
    for jobs in (1, 2):
        report = empirical_density(E, P, 5, 3, 3000, exclusions=(7,), jobs=jobs)
        [span] = _spans(capsys, "galois_density.scan")
        assert [span[k] for k in ("excluded", "bad", "residue_class", "order", "hits")] == finder
        assert (span["jobs"], report.empirical.hits) == (jobs, result.stats["candidates"])


def test_a_traced_finder_writes_its_stats_in_one_span(monkeypatch, capsys):
    _trace(monkeypatch)
    fields = {"span", "parent", "start", "s", "q", "p_max", "base"}
    for p_max, found in ((6, False), (2_000_000, True)):
        result = find_witness(E, P, FIBONACCI, 5, p_max=p_max)
        [span] = _spans(capsys, "refuter.scan")
        assert result.found == found
        assert (span["q"], span["p_max"], span["base"]) == (5, min(p_max, MAX_WITNESS_P), "rational")
        assert {k: span[k] for k in result.stats} == result.stats
        assert set(span) == fields | set(result.stats) | ({"p"} if found else set())
        assert span.get("p") == (result.certificate.p if found else None)


def test_finder_certifies_a_witness_whose_window_passes_the_former_cap():
    # q = 31: the first candidate, p = 2,699 with order 2,697, has the window
    # 2r(p-1) + 2r + 16 = 14,558,422, above the 6 * 10^6 horizon cap the
    # finder used to skip such a prime by, though the verifier accepts it
    result = find_witness(E, P, FIBONACCI, 31, p_max=10_000)
    assert result.found, result.stats
    cert = result.certificate
    assert (cert.p, cert.point_order, cert.tz_window) == (2_699, 2_697, (1, 14_558_422))
    assert result.stats["period_unconfirmed"] == 0
    verdict = verify_certificate(WitnessCertificate.from_json(cert.to_json()))
    assert verdict.ok, verdict.failures


def test_finder_rejects_a_long_walk_of_u_before_it_starts():
    # chi = x^5 - x^4 - x^3 - 1: at the first candidate, p = 223, u mod p has
    # period 2,484,112,961 > MAX_WALK.  x^t mod chi finds it without a walk,
    # which would hold a list of MAX_WALK terms (over 80 MB) before giving up
    spec = LrsSpec(5, (1, 1, 0, 0, 1), (1, 1, 1, 1, 1))
    tracemalloc.start()
    try:
        result = find_witness(E, P, spec, 13, p_max=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.found and result.certificate.p == 353
    assert result.stats["period_unconfirmed"] == 1
    assert peak < 20_000_000
    verdict = verify_certificate(WitnessCertificate.from_json(result.certificate.to_json()))
    assert verdict.ok, verdict.failures


TRIBONACCI = LrsSpec(3, (1, 1, 1), (1, 1, 2))
LUCAS = LrsSpec(2, (1, 1), (1, 3))
PADOVAN = LrsSpec(3, (0, 1, 1), (1, 1, 1))


@pytest.mark.parametrize("spec", [FIBONACCI, LUCAS])
def test_zero_x_point_is_certified_as_given(spec):
    # the claim z_k(P) = u_(k^2) says nothing direct about 2P, so the
    # certificate must name P itself, x = 0 or not
    curve, point = CurveQ(-5, 4), PointQ(0, 2, 1)
    _assert_certified_as_given(curve, point, spec, choose_q(spec, curve), 5_000, 7)


@pytest.mark.parametrize(
    "curve,point,spec,edit,failures",
    [
        # p = 37, order 15, tz = 270 = 15*18: tz*2 still fits the window twice
        (CurveQ(-6, 6), P, TRIBONACCI, lambda tz: 2 * tz, ["tz_minimal"]),
        (E, P, FIBONACCI, lambda tz: tz + 1, ["tz_period", "tz_minimal", "q_divides_tz"]),
        (E, P, FIBONACCI, lambda tz: tz + 5, ["tz_period", "tz_minimal"]),
    ],
)
def test_verifier_rederives_tz(curve, point, spec, edit, failures):
    cert = find_witness(curve, point, spec, choose_q(spec, curve), p_max=20_000).certificate
    verdict = verify_certificate(replace(cert, tz_period=edit(cert.tz_period)))
    assert verdict.failures == failures


def test_period_work_stays_within_twice_the_order(monkeypatch):
    # neither the finder nor the verifier streams w_n at all, let alone past
    # w_{2r+2}: tz comes from ladder blocks
    def no_stream(seeds, p, horizon):
        raise AssertionError(f"stream of {horizon} terms at p={p}")

    monkeypatch.setattr(eds, "stream_mod_p", no_stream)
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    verdict = verify_certificate(cert)
    assert verdict.ok, verdict.failures


# SHA-256 of the certificates written by the windowed stream-period finder
CERTIFICATE_DIGESTS = [
    (E, P, FIBONACCI, 10_000, "7674588d0695fdfab70cc61e06d1ac91363ab9e824f03e4a204f46327f7c6d4a"),
    (CurveQ(-6, 6), P, TRIBONACCI, 20_000, "e0f9b327ba3d8386c33a2414b27f2a6e7b98b5f2645aa538145a71af7c2c4025"),
    # x = 0: the certificate names P itself, not 2P
    (CurveQ(-5, 4), PointQ(0, 2, 1), FIBONACCI, 5_000, "87dd9a2d766c255b8ddd12c76915cb61411884deccb3dbcdceb0178393fa726a"),
    (CurveQ(-5, 2), PointQ(-2, 2, 1), FIBONACCI, 50_000, "ba5d1ed9bfcc8fa2bbd892ad230cc5e51f28e98f07b0af845128baab8c825953"),
    (CurveQ(-3, -1), PointQ(2, 1, 1), LUCAS, 50_000, "1b65ffaa0f7847da13ad78a0c1ad77d0b2f03d494aae734017e6faaaac792e0e"),
    (CurveQ(-6, 6), P, PADOVAN, 50_000, "18e638b476c338e8f423d3d8fae95f66dd74b02a0c4f3808b4f24dd2132a5f1a"),
]


@pytest.mark.parametrize("curve,point,spec,p_max,digest", CERTIFICATE_DIGESTS)
def test_certificate_bytes_unchanged(curve, point, spec, p_max, digest):
    cert = find_witness(curve, point, spec, choose_q(spec, curve), p_max=p_max).certificate
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest


def test_finder_and_verifier_use_no_companion_matrix_power(monkeypatch):
    # u_{n^2} mod p and the period of u come from square_sampled_period's one
    # walk of the recurrence mod p; the certificate is unchanged.  x^t mod chi
    # is the companion-matrix power C^t in F_p[C]
    def no_matrix(*args):
        raise AssertionError("companion-matrix power")

    monkeypatch.setattr(lrs, "_x_pow_mod", no_matrix)
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == CERTIFICATE_DIGESTS[0][-1]
    verdict = verify_certificate(WitnessCertificate.from_json(cert.to_json()))
    assert verdict.ok, verdict.failures


def _record_prefix_lengths(monkeypatch):
    """Patch the finder's and the verifier's `generate_geometric` to record each n_terms."""
    calls = []

    def recorded(curve, point, n_terms):
        calls.append(n_terms)
        return generate_geometric(curve, point, n_terms)

    monkeypatch.setattr(refuter, "generate_geometric", recorded)
    return calls


# u = 1: at p = 5 only 7 of z_1..z_24 are not +-1 mod 5, so the finder
# extends its prefix to z_1..z_60, where the 12th mismatch is z_36
CONSTANT_CLAIM = (E, P, LrsSpec(1, (1,), (1,)), 3, 3_000)


@pytest.mark.parametrize("curve,point,spec,p_max,digest", CERTIFICATE_DIGESTS)
def test_finder_reads_only_the_short_prefix_when_it_holds_the_listed_mismatches(
    monkeypatch, curve, point, spec, p_max, digest
):
    calls = _record_prefix_lengths(monkeypatch)
    result = find_witness(curve, point, spec, p_max=p_max)
    assert hashlib.sha256(result.certificate.to_json().encode()).hexdigest() == digest
    assert calls == [refuter.SHORT_MISMATCH_LIMIT]
    assert len(result.certificate.mismatches) == refuter.LISTED_MISMATCHES
    assert result.certificate.mismatches[-1][0] <= refuter.SHORT_MISMATCH_LIMIT


def test_finder_extends_to_the_full_prefix_when_the_short_one_holds_too_few(monkeypatch):
    curve, point, spec, q, p_max = CONSTANT_CLAIM
    calls = _record_prefix_lengths(monkeypatch)
    cert = find_witness(curve, point, spec, q, p_max=p_max).certificate
    assert calls == [refuter.SHORT_MISMATCH_LIMIT, refuter.DEFAULT_MISMATCH_LIMIT]
    assert cert.p == 5 and [n for n, _, _ in cert.mismatches][-2:] == [34, 36]
    assert verify_certificate(WitnessCertificate.from_json(cert.to_json())).ok


@pytest.mark.parametrize(
    "claim", [(E, P, FIBONACCI, 5, 10_000), CONSTANT_CLAIM, (CurveQ(-6, 6), P, PADOVAN, 5, 50_000)]
)
def test_short_prefix_changes_no_certificate_and_no_stat(monkeypatch, claim):
    # the 60-term prefix alone, as the finder read it before, gives the same bytes and stats
    curve, point, spec, q, p_max = claim
    result = find_witness(curve, point, spec, q, p_max=p_max)
    monkeypatch.setattr(refuter, "SHORT_MISMATCH_LIMIT", refuter.DEFAULT_MISMATCH_LIMIT)
    full = find_witness(curve, point, spec, q, p_max=p_max)
    assert result.certificate.to_json() == full.certificate.to_json()
    assert result.stats == full.stats


@pytest.mark.parametrize(
    "curve,point",
    list(dict.fromkeys((c, p) for c, p, *_ in CERTIFICATE_DIGESTS))
    + [(CurveQ(0, 17), PointQ(-2, 3, 1)), (CurveQ(-2, 0), PointQ(2, 2, 1))],
)
def test_mismatch_oracle_matches_the_chord_tangent_walk(curve, point):
    # the last two points take the gcd path of generate_geometric
    walk = [m.z for m in islice(multiples(point, curve), MAX_MISMATCH_INDEX)]
    assert generate_geometric(curve, point, MAX_MISMATCH_INDEX).terms == walk


def test_verifier_checks_a_stated_index_60_in_bounded_time(monkeypatch):
    # z_60 = 0 = u_3600 (mod 7): index 60 is no mismatch, and the verifier
    # says so from one 60-term prefix
    cert = find_witness(E, P, FIBONACCI, 5, p_max=10_000).certificate
    z_mod = generate_geometric(E, P, 60).term(60) % cert.p
    u_mod = eval_mod(FIBONACCI, 3600, cert.p)
    assert z_mod == u_mod == 0
    calls = _record_prefix_lengths(monkeypatch)
    start = time.perf_counter()
    verdict = verify_certificate(replace(cert, mismatches=[*cert.mismatches[:-1], (60, z_mod, u_mod)]))
    assert time.perf_counter() - start < 2.0
    assert verdict.failures == ["mismatches"]
    assert verdict.checks[-1].detail == "index 60: sequences agree up to sign"
    assert calls == [60]
