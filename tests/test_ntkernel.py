import functools
import random
import tracemalloc
from fractions import Fraction

import pytest

from edslab import ntkernel
from edslab.ntkernel import (
    IncompleteFactorization,
    NonResidueError,
    Poly,
    Residue,
    cyclotomic_factor_orders,
    cyclotomic_orders,
    cyclotomic_root_of_unity_test,
    det_fraction,
    factorize,
    hensel_lift_sqrt,
    iter_primes,
    invmod,
    is_prime,
    kernel_basis,
    lcm_tower,
    legendre_symbol,
    multiplicative_order,
    next_prime,
    sieve_primes,
    sqrt_mod_prime,
    totients,
)


def test_legendre_fixed_values():
    assert legendre_symbol(2, 7) == 1  # 4^2 = 16 = 2 mod 7
    assert legendre_symbol(0, 7) == 0
    assert legendre_symbol(2, 5) == -1  # squares mod 5 are {0,1,4}


def test_legendre_matches_exhaustive_squares():
    for r in (3, 5, 7, 11, 13, 17):
        squares = {i * i % r for i in range(1, r)}
        for a in range(r):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, r) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre_symbol(3, 15)
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)


def test_sqrt_mod_prime_fixed_values():
    assert sqrt_mod_prime(2, 7) == 3
    assert sqrt_mod_prime(0, 7) == 0
    assert sqrt_mod_prime(4, 11) == 2


def test_sqrt_mod_prime_canonical_and_correct():
    rng = random.Random(7)
    primes = [p for p in sieve_primes(500) if p > 2]
    for _ in range(300):
        r = rng.choice(primes)
        a = rng.randrange(r)
        if legendre_symbol(a, r) == -1:
            with pytest.raises(NonResidueError):
                sqrt_mod_prime(a, r)
        else:
            s = sqrt_mod_prime(a, r)
            assert s * s % r == a % r
            assert 0 <= s <= r // 2


def test_hensel_lift_fixed_values():
    assert hensel_lift_sqrt(2, 7, 2) == 10
    assert hensel_lift_sqrt(4, 11, 1) == 2


def test_hensel_lift_tower_consistency():
    rng = random.Random(11)
    primes = [p for p in sieve_primes(100) if p > 2]
    for _ in range(100):
        r = rng.choice(primes)
        a = rng.randrange(1, r)
        if legendre_symbol(a, r) != 1:
            continue
        for e in range(1, 5):
            s = hensel_lift_sqrt(a, r, e)
            assert s * s % r**e == a % r**e
            if e > 1:
                assert s % r ** (e - 1) == hensel_lift_sqrt(a, r, e - 1)


def test_hensel_rejects_non_unit():
    with pytest.raises(ValueError):
        hensel_lift_sqrt(7, 7, 2)


def test_lcm_tower_values():
    assert lcm_tower(5, 2) == 24
    assert lcm_tower(7, 1) == 6
    assert lcm_tower(2, 3) == 21


def test_sieve_matches_is_prime():
    assert sieve_primes(10**5) == [n for n in range(10**5 + 1) if is_prime(n)]
    assert sieve_primes(1) == sieve_primes(0) == sieve_primes(-5) == []
    assert sieve_primes(2) == [2] and sieve_primes(9) == [2, 3, 5, 7]


def test_sieve_refuses_a_bound_past_its_limit(monkeypatch):
    monkeypatch.setattr(ntkernel, "MAX_SIEVE_LIMIT", 100)
    assert sieve_primes(100)[-1] == 97
    with pytest.raises(ValueError, match="exceeds the sieve limit 100"):
        sieve_primes(101)


def test_segmented_sieve_across_segment_edges(monkeypatch):
    monkeypatch.setattr(ntkernel, "_SIEVE_SEGMENT", 64)
    for limit in (2, 3, 63, 64, 65, 127, 128, 4099):
        assert sieve_primes(limit) == [n for n in range(limit + 1) if is_prime(n)]


def test_iter_primes_from_a_start(monkeypatch):
    monkeypatch.setattr(ntkernel, "_SIEVE_SEGMENT", 64)
    for limit in (3, 64, 65, 128, 4099):
        for start in (-3, 0, 2, 3, 4, 63, 64, 65, 127, limit, limit + 1):
            expected = [n for n in range(max(start, 0), limit + 1) if is_prime(n)]
            assert list(iter_primes(limit, start)) == expected, (limit, start)


def test_iter_primes_refuses_a_bound_past_its_limit_at_the_call(monkeypatch):
    # before anything is read, so a caller can check the bound before work starts
    monkeypatch.setattr(ntkernel, "MAX_SIEVE_LIMIT", 100)
    with pytest.raises(ValueError, match="exceeds the sieve limit 100"):
        iter_primes(101, 90)


def test_iter_primes_sieves_only_what_is_read():
    # at the largest bound, the first primes need only the base primes and one segment
    tracemalloc.start()
    try:
        primes = iter_primes(ntkernel.MAX_SIEVE_LIMIT)
        first = [next(primes) for _ in range(5)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [2, 3, 5, 7, 11]
    assert peak < 10**6


def test_prime_helpers():
    assert [p for p in sieve_primes(30)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert next_prime(13) == 17
    assert invmod(3, 7) == 5
    with pytest.raises(ValueError):
        invmod(6, 9)


def test_factorize_roundtrip():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randrange(2, 10**12)
        factors = factorize(n)
        prod = 1
        for p, e in factors.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_effort_cap():
    # Two 30-digit primes: rho with a tiny budget must give up, not lie.
    p = next_prime(10**29)
    q = next_prime(p + 10)
    with pytest.raises(IncompleteFactorization) as exc:
        factorize(p * q, rho_iters=10)
    assert exc.value.cofactor > 1


def test_multiplicative_order_matches_exhaustive_powers():
    for p in (3, 5, 7, 13, 31, 97, 1009):
        for a in range(1, min(p, 120)):
            assert multiplicative_order(a, p) == next(k for k in range(1, p) if pow(a, k, p) == 1)
    with pytest.raises(ValueError):
        multiplicative_order(14, 7)


def euler_phi(n: int) -> int:
    """Euler's totient via factorization: the reference for the totient sieve."""
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def test_euler_phi():
    expected = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [euler_phi(n) for n in range(1, 13)] == expected
    assert totients(12)[1:] == expected
    assert totients(5000)[1:] == [euler_phi(n) for n in range(1, 5001)]


def test_cyclotomic_orders_match_brute_force():
    # search well past the 2*B^2 + 1 the order list stops at
    phi = {m: euler_phi(m) for m in range(1, 4 * 40 * 40 + 5)}
    for bound in range(1, 41):
        assert cyclotomic_orders(bound) == [m for m in range(1, 4 * bound * bound + 5) if phi[m] <= bound]


def test_poly_ring_axioms_randomized():
    rng = random.Random(19)

    def rand_poly():
        return Poly(*[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])

    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f + g == g + f


def test_poly_compose_evaluate_divmod():
    f = Poly(1, 2, 1)  # (x+1)^2
    g = Poly(0, 0, 1)  # x^2
    assert f.compose(g) == Poly(1, 0, 2, 0, 1)
    assert f(3) == 16
    q, r = Poly(-1, 0, 0, 1).divmod_exact(Poly(-1, 1))
    assert q == Poly(1, 1, 1) and r.is_zero()


@functools.cache
def cyclotomic_polynomial(m: int) -> Poly:
    """Phi_m by exact division of x^m - 1 over Q: the reference for the integer search."""
    num = Poly(-1, *[0] * (m - 1), 1)
    for d in range(1, m):
        if m % d == 0:
            num, rem = num.divmod_exact(cyclotomic_polynomial(d))
            assert rem.is_zero()
    return num


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == Poly(-1, 1)
    assert cyclotomic_polynomial(2) == Poly(1, 1)
    assert cyclotomic_polynomial(3) == Poly(1, 1, 1)
    assert cyclotomic_polynomial(4) == Poly(1, 0, 1)
    assert cyclotomic_polynomial(12) == Poly(1, 0, -1, 0, 1)
    # x^m - 1 is the product of the Phi_d, d | m
    for m in range(1, 61):
        product = Poly(1)
        for d in range(1, m + 1):
            if m % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == Poly(-1, *[0] * (m - 1), 1)
        assert cyclotomic_polynomial(m).degree == euler_phi(m)


def test_root_of_unity_detection():
    assert cyclotomic_root_of_unity_test(Poly(1, 1), 4) == (True, 2)
    assert cyclotomic_root_of_unity_test(Poly(-2, 1), 20) == (False, None)
    assert cyclotomic_root_of_unity_test(Poly(1, 1, 1), 6) == (True, 3)
    # x - 1 is the order-1 root of unity
    assert cyclotomic_root_of_unity_test(Poly(-1, 1), 4) == (True, 1)
    with pytest.raises(ValueError):
        cyclotomic_root_of_unity_test(Poly(), 4)


def _reference_cyclotomic_orders(f: Poly, bound: int) -> list[int]:
    """Every m, phi(m) <= bound, with Phi_m | f, by Poly division over Q."""
    eff = min(bound, f.degree)
    candidates = range(1, 2 * eff * eff + 2) if eff >= 1 else ()
    return [m for m in candidates if euler_phi(m) <= eff and (f % cyclotomic_polynomial(m)).is_zero()]


def test_integer_cyclotomic_search_matches_poly_division():
    rng = random.Random(1009)
    hits = 0
    for _ in range(150):
        f = Poly(*[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))])
        for _ in range(rng.randint(0, 3)):
            f = f * cyclotomic_polynomial(rng.randint(1, 36))
        if f.is_zero():
            continue
        bound = rng.randint(1, 20)
        expected = _reference_cyclotomic_orders(f, bound)
        assert list(cyclotomic_factor_orders(f, bound)) == expected, (f, bound)
        assert cyclotomic_root_of_unity_test(f, bound) == (bool(expected), expected[0] if expected else None)
        hits += bool(expected)
    assert hits > 30


def test_cyclotomic_search_makes_no_poly_division(monkeypatch):
    cases = [
        Poly(1, 1) * Poly(1, 0, 1) * Poly(Fraction(1, 3), 2),
        cyclotomic_polynomial(15) * cyclotomic_polynomial(7),
        Poly(-2, 1) * Poly(3, 0, 1),
    ]

    def refuse(self, divisor):
        raise AssertionError("Poly.divmod_exact called")

    monkeypatch.setattr(Poly, "divmod_exact", refuse)
    assert [cyclotomic_root_of_unity_test(f, 20) for f in cases] == [(True, 2), (True, 7), (False, None)]
    assert list(cyclotomic_factor_orders(cases[1], 20)) == [7, 15]


def test_exact_linear_algebra():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert kernel_basis(rows) == [[Fraction(-2), Fraction(1)]]
    assert det_fraction([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2


def test_residue_arithmetic():
    r = Residue(8, 5)
    assert r.value == 3
    assert (r + 4).value == 2
    assert (r * r).value == 4
    assert r.inverse().value == 2
    with pytest.raises(ValueError):
        Residue(2, 6).inverse()
