import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from edslab import ntkernel
from edslab.ntkernel import (
    IncompleteFactorization,
    NonResidueError,
    Poly,
    cyclotomic_factor_orders,
    cyclotomic_orders,
    echelon,
    factorize,
    hensel_lift_sqrt,
    iter_primes,
    is_prime,
    kernel_basis,
    legendre_symbol,
    multiplicative_order,
    next_prime,
    sieve_primes,
    sqrt_mod_prime,
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
    drawn = [(r, rng.randrange(r)) for r in (rng.choice(primes) for _ in range(300))]
    # and every a at r = 3, 7 and 11, where r - 1 = 2 * odd: Tonelli-Shanks with e = 1
    for r, a in [*drawn, *((r, a) for r in (3, 7, 11) for a in range(r))]:
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


PSI_12 = 318_665_857_834_031_151_167_461  # the least strong pseudoprime to the bases 2..37
PSI_13 = 3_317_044_064_679_887_385_961_981  # ... to the bases 2..41


@pytest.mark.parametrize("n", [3_215_031_751, PSI_12, PSI_13])
def test_is_prime_refuses_the_strong_pseudoprimes_at_its_base_bounds(n):
    # psi_12 passes all 12 bases 2..37: is_prime called it prime while the
    # 12-base branch ran up to psi_13, and factorize returned it whole
    assert not is_prime(n)


def test_factorize_splits_psi_12():
    assert factorize(PSI_12) == {399_165_290_221: 1, 798_330_580_441: 1}


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
    # a ValueError, whose message sizes the input and the cofactor in bits
    with pytest.raises(ValueError, match=f"^could not fully factor a {(4 * p * q).bit_length()}-bit integer; "
                       f"stuck at a {(p * q).bit_length()}-bit cofactor$"):
        factorize(4 * p * q, rho_iters=10)


def test_rho_gets_an_odd_composite_and_returns_a_proper_factor_or_1(monkeypatch):
    # trial division takes every prime below 10^4, so what reaches rho is odd
    # and composite; a composite there splits, or with a tiny budget gives up
    rho, calls = ntkernel._brent_rho, []

    def recorded(n, c, max_iters):
        calls.append((n, rho(n, c, max_iters)))
        return calls[-1][1]

    monkeypatch.setattr(ntkernel, "_brent_rho", recorded)
    p, q, r = 10_007, next_prime(10**6), next_prime(10**9)
    for n in (p * q, 2**5 * 3 * p * r, p * q * r, q * q, 7 * p * p * q):
        assert math.prod(f**e for f, e in factorize(n).items()) == n
    big_p = next_prime(10**29)
    with pytest.raises(IncompleteFactorization):
        factorize(big_p * next_prime(big_p + 10), rho_iters=10)
    assert calls and any(d == 1 for _, d in calls) and any(d > 1 for _, d in calls)
    for n, d in calls:
        assert n % 2 and not is_prime(n), n
        assert d == 1 or (1 < d < n and n % d == 0), (n, d)


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


def totients(n: int) -> list[int]:
    """phi(0..n) by a totient sieve (phi(0) = 0 stands in): the reference for
    cyclotomic_orders, whose m are at most 2*bound^2 as phi(m) >= sqrt(m/2)."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime divides p
            for j in range(p, n + 1, p):
                phi[j] -= phi[j] // p
    return phi


def test_euler_phi():
    expected = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [euler_phi(n) for n in range(1, 13)] == expected
    assert totients(12)[1:] == expected
    assert totients(5000)[1:] == [euler_phi(n) for n in range(1, 5001)]


def test_cyclotomic_orders_match_brute_force():
    # search well past 2*B^2 + 1, which phi(m) >= sqrt(m/2) bounds every order by
    phi = {m: euler_phi(m) for m in range(1, 4 * 40 * 40 + 5)}
    for bound in range(1, 41):
        assert cyclotomic_orders(bound) == [m for m in range(1, 4 * bound * bound + 5) if phi[m] <= bound]
    phi = totients(2 * 1024**2 + 1)
    for bound in (*range(61), 256, 1024):
        assert cyclotomic_orders(bound) == [m for m in range(1, 2 * bound**2 + 2) if phi[m] <= bound]


def test_cyclotomic_orders_build_no_table_past_their_answer():
    # a totient table up to 2*B^2 + 1 holds 2,097,153 ints (84 MB) for these 2,003 orders
    tracemalloc.start()
    try:
        orders = cyclotomic_orders(1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(orders) == 2003
    assert peak < 10**6


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


def poly_divmod(f: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) of f by a non-zero divisor, by long division over
    Q: the tests' reference, as no library code divides polynomials."""
    rem = list(f.coeffs)
    dn, dl = divisor.degree, divisor.leading
    quo = [Fraction(0)] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        quo[i] = rem[i + dn] / dl
        for j, c in enumerate(divisor.coeffs):
            rem[i + j] -= quo[i] * c
    return Poly(*quo), Poly(*rem[:dn])


def test_poly_compose_evaluate_divmod():
    f = Poly(1, 2, 1)  # (x+1)^2
    g = Poly(0, 0, 1)  # x^2
    assert f(g) == Poly(1, 0, 2, 0, 1)
    assert f(3) == 16
    q, r = poly_divmod(Poly(-1, 0, 0, 1), Poly(-1, 1))
    assert q == Poly(1, 1, 1) and r.is_zero()
    assert poly_divmod(Poly(1, 0, 1), Poly(-1, 2)) == (Poly(Fraction(1, 4), Fraction(1, 2)), Poly(Fraction(5, 4)))


@functools.cache
def cyclotomic_polynomial(m: int) -> Poly:
    """Phi_m by exact division of x^m - 1 over Q: the reference for the integer search."""
    num = Poly(-1, *[0] * (m - 1), 1)
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, cyclotomic_polynomial(d))
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


def _integral(f: Poly) -> list[int]:
    """f's coefficients, ascending, times the lcm of their denominators: an
    integer polynomial with f's cyclotomic factors, as the search takes it."""
    scale = math.lcm(*(c.denominator for c in f.coeffs))
    return [int(c * scale) for c in f.coeffs]


def _least_order(f: Poly, bound: int) -> int | None:
    return next(cyclotomic_factor_orders(_integral(f), bound), None)


def test_root_of_unity_detection():
    assert _least_order(Poly(1, 1), 4) == 2
    assert _least_order(Poly(-2, 1), 20) is None
    assert _least_order(Poly(1, 1, 1), 6) == 3
    # x - 1 is the order-1 root of unity
    assert _least_order(Poly(-1, 1), 4) == 1
    with pytest.raises(ValueError):
        _least_order(Poly(), 4)


def _reference_cyclotomic_orders(f: Poly, bound: int) -> list[int]:
    """Every m, phi(m) <= bound, with Phi_m | f, by Poly division over Q."""
    eff = min(bound, f.degree)
    candidates = range(1, 2 * eff * eff + 2) if eff >= 1 else ()
    return [m for m in candidates if euler_phi(m) <= eff and poly_divmod(f, cyclotomic_polynomial(m))[1].is_zero()]


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
        assert list(cyclotomic_factor_orders(_integral(f), bound)) == expected, (f, bound)
        hits += bool(expected)
    assert hits > 30


def _divisor_product_orders(f: Poly, bound: int) -> list[int]:
    """The search with the product over every proper divisor d of m of
    x^d - 1, where the library takes one x^(m/l) - 1 per prime l | m."""
    g, orders = _integral(f), []
    for m in cyclotomic_orders(min(bound, f.degree)):
        h = [0] * m
        for i, c in enumerate(g):
            h[i % m] += c
        for d in range(1, m):
            if m % d == 0:
                h = [h[i - d] - h[i] for i in range(m)]
        if not any(h):
            orders.append(m)
    return orders


def test_one_factor_per_prime_finds_what_every_divisor_finds():
    rng = random.Random(4241)
    orders = cyclotomic_orders(36)
    for m in orders:
        for _ in range(2):
            f = cyclotomic_polynomial(m) * Poly(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            if rng.random() < 0.5:
                f = f * cyclotomic_polynomial(rng.choice(orders))
            if f.is_zero():
                continue
            found = list(cyclotomic_factor_orders(_integral(f), 36))
            assert m in found and found == _divisor_product_orders(f, 36), (m, f)


def test_cyclotomic_search_makes_no_poly_division():
    # the search folds modulo x^m - 1 over Z, and Poly has no division to call
    division = ("divmod_exact", "__mod__", "__divmod__", "__floordiv__", "__truediv__")
    assert [name for name in division if hasattr(Poly, name)] == []
    cases = [
        Poly(1, 1) * Poly(1, 0, 1) * Poly(Fraction(1, 3), 2),
        cyclotomic_polynomial(15) * cyclotomic_polynomial(7),
        Poly(-2, 1) * Poly(3, 0, 1),
    ]
    assert [_least_order(f, 20) for f in cases] == [2, 7, None]
    assert list(cyclotomic_factor_orders(_integral(cases[1]), 20)) == [7, 15]


def test_exact_linear_algebra():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert kernel_basis(rows) == [[Fraction(-2), Fraction(1)]]


def _leibniz(rows: list[list[int]]) -> int:
    """The determinant as a sum of signed products over permutations: the
    reference for the determinant and for the rank by minors."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def _rank_by_minors(rows: list[list[int]], n_cols: int, into=Fraction) -> int:
    """The largest r with an r x r minor in the first n_cols columns that is
    non-zero in the field `into` maps the integers onto."""
    for r in range(min(len(rows), n_cols), 0, -1):
        for ri in itertools.combinations(range(len(rows)), r):
            for ci in itertools.combinations(range(n_cols), r):
                if into(_leibniz([[rows[i][j] for j in ci] for i in ri])):
                    return r
    return 0


def _elimination_cases(q: int | None):
    """(integer matrix, Hankel terms or None), n x n and n x (n + 1) for n up
    to 6, seeded by q, with entries below 3q in size (15 over Q, q None)."""
    rng, size = random.Random(q or 2718), q or 5
    for n in range(1, 7):
        for _ in range(6):
            entries = (0, 0, 1, -1, 2, rng.randrange(-3 * size, 3 * size))
            yield [[rng.choice(entries) for _ in range(n)] for _ in range(n)], None
        full = [[rng.randrange(-3 * size, 3 * size) for _ in range(n)] for _ in range(n)]
        # the first pivot needs a row swap: its entry is 0 in the field
        swap = [row[:] for row in full]
        swap[0][0], swap[-1][0] = q or 0, 1
        yield swap, None
        # a zero column, and a repeated row: both singular
        yield [[*row[:-1], 0] for row in full], None
        yield [*full[: n - 1], full[0]] if n > 1 else [[0]], None
        # square and one column wider
        for width in (n, n + 1):
            terms = [rng.randint(-3, 3) for _ in range(n + width - 1)]
            yield [[terms[i + j] for j in range(width)] for i in range(n)], terms


@pytest.mark.parametrize("q", [2, 3, 7, 1_000_003, 2**127 - 1, None])
def test_one_elimination_gives_the_determinant_rank_and_kernel(q):
    # over F_q (`pow(x, -1, q)` and `q.__rmod__` on ints) and over Q (q None:
    # `1 / x` and the identity on Fractions), checked against the Leibniz
    # determinant and the rank by minors
    from edslab.lrs import hankel_rank

    field, into = ((lambda x: pow(x, -1, q), q.__rmod__), q.__rmod__) if q else ((), Fraction)
    seen = {"swap": 0, "singular": 0, "regular": 0}
    for rows, terms in _elimination_cases(q):
        n, width = len(rows), len(rows[0])
        mat, pivots, det = echelon(rows if q else [list(map(Fraction, row)) for row in rows], *field)
        # a pivot at each column outside the span of the columns before it
        ranks = [_rank_by_minors(rows, c, into) for c in range(width + 1)]
        assert pivots == [c for c in range(width) if ranks[c + 1] > ranks[c]], (rows, q)
        rank = len(pivots)
        for r, row in enumerate(mat):
            lead = pivots[r] if r < rank else width
            assert not any(row[:lead]) and (r >= rank or row[lead]), (rows, q)
            assert all(type(x) is int and 0 <= x < q for x in row) if q else all(type(x) is Fraction for x in row)
        if width > n:
            assert det is None
        else:
            assert det == into(_leibniz(rows)), (rows, q)
            seen["singular" if det == 0 else "regular"] += 1
            seen["swap"] += det != 0 and into(rows[0][0]) == 0
        if q is None:
            if terms is not None:
                assert hankel_rank(terms) == rank, terms
            # the kernel basis: a unit at one free column, 0 at the others
            free = [c for c in range(width) if c not in pivots]
            basis = kernel_basis([[Fraction(x) for x in row] for row in rows])
            assert len(basis) == len(free) == width - rank, rows
            for fc, vec in zip(free, basis):
                assert [vec[c] for c in free] == [int(c == fc) for c in free], rows
                assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows), rows
    assert min(seen.values()) >= 5, seen
