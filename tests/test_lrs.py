import math
import random
import re
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from operator import mul

import pytest

from edslab import lrs
from edslab.eds import generate_geometric
from edslab.elliptic import CurveQ, PointQ
from edslab.lrs import (
    FIBONACCI,
    MAX_TERM_BITS,
    LrsSpec,
    _ratio_polynomial,
    decimate,
    eval_exact,
    eval_mod,
    fit_minimal_recurrence,
    generate,
    hankel_rank,
    is_degenerate,
    lrs_period_mod_p,
    nondegenerate_reduction,
    ratio_orders,
    SquarePeriodResult,
    square_sampled_period,
)
from edslab.ntkernel import (
    Poly,
    kernel_basis,
    order_from_multiple,
    sieve_primes,
)
from test_ntkernel import _reference_cyclotomic_orders, cyclotomic_polynomial, poly_divmod


def test_spec_validation():
    with pytest.raises(ValueError):
        LrsSpec(2, (1, 0), (1, 1))  # zero trailing coefficient
    with pytest.raises(ValueError):
        LrsSpec(2, (1,), (1, 1))


def test_eval_exact_fixed_values():
    assert eval_exact(FIBONACCI, 10) == 55
    geometric = LrsSpec(1, (2,), (3,))
    assert eval_exact(geometric, 5) == 48
    assert generate(FIBONACCI, 8) == [1, 1, 2, 3, 5, 8, 13, 21]



def test_eval_exact_stops_as_soon_as_a_term_passes_the_bound():
    doubling = LrsSpec(1, (2,), (1,))  # u_n = 2^(n-1) has n bits
    assert eval_exact(doubling, MAX_TERM_BITS) == 1 << (MAX_TERM_BITS - 1)
    with pytest.raises(ValueError, match=f"u_{MAX_TERM_BITS + 1} has {MAX_TERM_BITS + 1} bits"):
        eval_exact(doubling, MAX_TERM_BITS + 1)
    # Fibonacci's u_n first passes the bound at n = 20,577, as under iteration
    assert eval_exact(FIBONACCI, 20_576).bit_length() == MAX_TERM_BITS
    with pytest.raises(ValueError, match=f"^u_20577 has {MAX_TERM_BITS + 1} bits, past the term bound"):
        eval_exact(FIBONACCI, 20_577)
    # a coefficient of 300 digits: x^19 is refused before it is squared
    with pytest.raises(ValueError, match=r"^x\^19 mod the characteristic polynomial has a 18935-bit coefficient"):
        eval_exact(LrsSpec(1, (10**300 + 7,), (1,)), 5_000)


def test_eval_exact_memory_follows_one_term_not_n():
    import tracemalloc

    # the peak is a few terms' worth at every n; u_1..u_n, which it held
    # before, peaked at 466.6 MB for Fibonacci at n = 10^5; the largest n of
    # each spec keeps its term within MAX_TERM_BITS
    for spec, largest in ((FIBONACCI, 20_000), (LrsSpec(3, (1, 1, 1), (1, 1, 2)), 16_000)):
        terms = generate(spec, 60)
        assert [eval_exact(spec, n) for n in range(1, 61)] == terms
        for n in (5_000, largest):
            tracemalloc.start()
            try:
                u = eval_exact(spec, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert u % 1_000_003 == eval_mod(spec, n, 1_000_003)
            assert peak < 8 * (u.bit_length() // 8) + 4096, (spec, n, peak)


def _eval_by_iteration(spec: LrsSpec, n: int) -> int:
    """u_n by n - k steps of the recurrence, holding the last k terms;
    ValueError once a term passes `MAX_TERM_BITS`: the reference for `eval_exact`."""
    terms = list(spec.initial)
    for index in range(spec.order + 1, n + 1):
        u = sum(c * terms[-i] for i, c in enumerate(spec.coeffs, start=1))
        if u.bit_length() > MAX_TERM_BITS:
            raise ValueError(f"u_{index} has {u.bit_length()} bits, past the term bound {MAX_TERM_BITS}")
        terms = [*terms[1:], u]
    return terms[min(n, spec.order) - 1]


def _answer(evaluate, spec: LrsSpec, n: int) -> int | None:
    try:
        return evaluate(spec, n)
    except ValueError:
        return None


def test_eval_exact_answers_as_iteration_does_on_a_seeded_sweep():
    # the zero spec and u = 1 on (x - 1)(x - 100) have roots that the initial
    # terms cancel: taken modulo chi instead of the minimal recurrence, x^s
    # passes the bound at s = 30 and s = 2,151, so u_n, read from x^((n-1)/2),
    # is refused from n = 61 and n = 4,303 on
    rng = random.Random(40)
    answered = refused = 0
    specs = [(spec, {8_000, 100_000}) for spec in (LrsSpec(2, (0, 10**300), (0, 0)), LrsSpec(2, (101, -100), (1, 1)))]
    specs += [(_random_spec(rng, k, size), set()) for k in range(1, 7) for size in (5, 5, 5, 1_000, 1_000)]
    for spec, indices in specs:
        indices |= {1, spec.order + 1, 2 * spec.order + 1, 50, 100, rng.randint(1, 8_000), rng.randint(1, 8_000)}
        try:
            _eval_by_iteration(spec, 8_000)
        except ValueError as exc:  # the first term past the bound: the boundary is compared too
            first = int(re.match(r"u_(\d+) has", str(exc))[1])
            indices |= {first - 1, first}
        for n in sorted(indices):
            expected = _answer(_eval_by_iteration, spec, n)
            assert _answer(eval_exact, spec, n) == expected, (spec, n)
            answered += expected is not None
            refused += expected is None
    assert answered > 200 and refused > 30, (answered, refused)


def test_eval_exact_answers_a_term_within_the_bound_after_a_larger_one():
    # u_(2j+1) = 0 and u_(2j) = 4^(j-1) * 2^14283: iteration stops at u_4,
    # while u_5 = r_0^2 * u_1 with r = x^2 mod x^2 - 4, and the work stays small
    spec = LrsSpec(2, (0, 4), (0, 1 << (MAX_TERM_BITS - 1)))
    assert _answer(_eval_by_iteration, spec, 5) is None
    assert [_answer(eval_exact, spec, n) for n in (3, 4, 5, 1_001)] == [0, None, 0, 0]


def test_eval_exact_takes_log_n_squarings():
    import time

    # iteration took 35 ms a call for Fibonacci at n = 20,000, and the CLI
    # refused an exact --n past 10^5 before any step
    start = time.monotonic()
    for _ in range(100):
        eval_exact(FIBONACCI, 20_000)
    assert time.monotonic() - start < 1
    assert eval_exact(LrsSpec(2, (2, -1), (1, 2)), 10**30) == 10**30


def test_eval_exact_matches_matrix_power():
    rng = random.Random(23)
    for _ in range(10):
        k = rng.randint(1, 4)
        spec = LrsSpec(
            k,
            tuple(rng.randint(-3, 3) for _ in range(k - 1)) + (rng.choice([-2, -1, 1, 2]),),
            tuple(rng.randint(-5, 5) for _ in range(k)),
        )
        p = 10**9 + 7
        terms = generate(spec, 200)
        for n in (1, 7, 50, 200):
            assert eval_mod(spec, n, p) == terms[n - 1] % p


def _companion_power(spec: LrsSpec, e: int, m: int) -> list[list[int]]:
    """C^e mod m for the companion matrix C: the reference for x^e mod chi."""
    k = spec.order
    base = [[c % m for c in spec.coeffs]] + [[int(j == i - 1) for j in range(k)] for i in range(1, k)]
    result = [[int(i == j) % m for j in range(k)] for i in range(k)]

    def mat_mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % m for col in zip(*b)] for row in a]

    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        base = mat_mul(base, base)
    return result


def _reference_eval_mod(spec: LrsSpec, n: int, m: int) -> int:
    # the state (u_(n+k-1), ..., u_n) is C^(n-1) applied to (u_k, ..., u_1)
    state = [u % m for u in reversed(spec.initial)]
    return sum(x * y for x, y in zip(_companion_power(spec, n - 1, m)[-1], state)) % m


def _reference_matrix_period(spec: LrsSpec, p: int) -> int:
    state = [u % p for u in reversed(spec.initial)]
    k = spec.order
    bound = math.lcm(*(p**j - 1 for j in range(1, k + 1))) * next(p**e for e in range(k) if p**e >= k)

    def returns(t):
        return [sum(x * y for x, y in zip(row, state)) % p for row in _companion_power(spec, t, p)] == state

    return order_from_multiple(bound, returns)


def _random_spec(rng, k, size=5):
    coeffs = tuple(rng.randint(-size, size) for _ in range(k - 1)) + (rng.choice([-3, -2, -1, 1, 2, 3]),)
    return LrsSpec(k, coeffs, tuple(rng.randint(-size, size) for _ in range(k)))


def test_eval_mod_matches_companion_matrix_power():
    rng = random.Random(59)
    for k in range(1, 7):
        for _ in range(4):
            spec = _random_spec(rng, k)
            # prime moduli, and 2^64 and 12, which are not prime
            for m in (2, 101, 10**9 + 7, 2**64, 12):
                for n in (1, k, k + 1, rng.randint(1, 10**6), 10**18 + rng.randint(0, 10**6), 7**90):
                    assert eval_mod(spec, n, m) == _reference_eval_mod(spec, n, m), (spec, n, m)


def test_matrix_period_matches_companion_matrix_power():
    rng = random.Random(61)
    done = 0
    while done < 36:
        k = done % 6 + 1
        p = rng.choice([2, 3, 5, 7, 11, 13, 101])
        spec = _random_spec(rng, k)
        if spec.coeffs[-1] % p == 0:
            continue
        assert lrs_period_mod_p(spec, p, "matrix") == _reference_matrix_period(spec, p), (spec, p)
        done += 1


def test_eval_mod_huge_index():
    # Pisano period mod 5 is 20 and 10^6 = 20*50000, so u_{10^6} = u_{20} pattern
    assert eval_mod(FIBONACCI, 10**6, 5) == eval_mod(FIBONACCI, 20, 5)
    direct = generate(FIBONACCI, 20)
    assert eval_mod(FIBONACCI, 10**6, 5) == direct[19] % 5


def test_square_sampled_stream_speed():
    import time

    start = time.monotonic()
    p = 99991
    acc = 0
    for n in range(1, 10_001):
        acc ^= eval_mod(FIBONACCI, (n * n) % 346320 + 1, p)
    assert time.monotonic() - start < 10


def test_fit_fibonacci():
    terms = generate(FIBONACCI, 24)
    fit = fit_minimal_recurrence(terms)
    assert fit.ok
    assert fit.spec.order == 2
    assert fit.spec.coeffs == (1, 1)
    assert fit.spec.initial == (1, 1)


def test_fit_constant():
    fit = fit_minimal_recurrence([7] * 10)
    assert fit.ok and fit.spec.order == 1 and fit.spec.coeffs == (1,)


def test_fit_rejects_eds_prefix():
    seq = generate_geometric(CurveQ(0, 3), PointQ(1, 2, 1), 20)
    fit = fit_minimal_recurrence(seq.terms, bound=8)
    assert not fit.ok
    # Hankel ranks keep growing with more data: nothing linear is hiding
    assert hankel_rank(seq.terms[:12]) < hankel_rank(seq.terms)


def test_fit_fatou_violation_diagnostic():
    # u_n = (3/2)^n * 2: terms 3, 9/2... not integral; use 2*3^n/2^n style:
    # a prefix satisfying only a rational recurrence of order 1: 2, 3 -> c = 3/2
    fit = fit_minimal_recurrence([4, 6, 9], bound=1)
    assert not fit.ok
    assert fit.fatou_violations and fit.fatou_violations[0][0] == 1
    assert fit.fatou_violations[0][1] == (Fraction(3, 2),)


def _reference_fit_order(terms: list[int], k: int) -> tuple[Fraction, ...] | None:
    """Order-k coefficients reproducing every window, or None, from the kernel
    over Q of [A | b], A x = b being the windows: the basis vector with a 1 in
    the b column is (-x, 1) with x 0 at A's free columns."""
    augmented = [[Fraction(terms[i + k - j]) for j in (*range(1, k + 1), 0)] for i in range(len(terms) - k)]
    basis = kernel_basis(augmented)
    if not basis or basis[-1][k] == 0:
        return None  # b is a pivot column: inconsistent
    *homogeneous, last = basis
    coeffs = [-v for v in last[:k]]
    if coeffs[-1] == 0:
        # prefer a representative with a non-zero trailing coefficient
        for vec in homogeneous:
            if vec[k - 1] != 0:
                coeffs = [c + v for c, v in zip(coeffs, vec)]
                break
        else:
            return None
    return tuple(coeffs)


def _reference_fit(terms: list[int], bound: int):
    """The per-order search: one kernel for each order 1..bound, a Fatou
    violation recorded for each order with only rational coefficients."""
    violations = []
    for k in range(1, bound + 1):
        if 2 * k > len(terms):
            break
        coeffs = _reference_fit_order(terms, k)
        if coeffs is None:
            continue
        if any(c.denominator != 1 for c in coeffs):
            violations.append((k, coeffs))
            continue
        spec = LrsSpec(k, tuple(int(c) for c in coeffs), tuple(terms[:k]))
        if generate(spec, len(terms)) == terms:
            return spec, violations
    return None, violations


def _assert_fit_matches_reference(terms, bound):
    fit = fit_minimal_recurrence(terms, bound)
    spec, violations = _reference_fit(terms, bound)
    assert fit.spec == spec, (terms, bound)
    assert fit.ok == (spec is not None)
    # the search reports only the least order that fits over Q
    assert fit.fatou_violations == violations[:1], (terms, bound)
    return fit, violations


def test_berlekamp_massey_fit_matches_per_order_rref():
    rng = random.Random(71)
    seen = set()
    for _ in range(300):
        spec = _random_spec(rng, rng.randint(1, 6), size=9)
        terms = generate(spec, rng.randint(2, 3 * spec.order + 6))
        kind = rng.choice(["exact", "perturbed", "scaled", "rational"])
        if kind == "perturbed":
            terms[rng.randrange(len(terms))] += rng.choice([-1, 1])
        elif kind == "rational":  # u_(n+1) = 3/2 * u_n on integer terms
            a = rng.randint(1, 3)
            terms = [a * 3**i * 2 ** (len(terms) - i) for i in range(len(terms))]
        elif kind == "scaled":
            terms = [2 * t for t in terms]
        fit, violations = _assert_fit_matches_reference(terms, rng.randint(0, 8))
        seen.add("ok" if fit.ok else "violation" if violations else "no_fit")
    assert seen == {"ok", "violation", "no_fit"}


@pytest.mark.parametrize(
    "terms, bound, expected",
    [
        ([0] * 6, 3, "lrs 1 1 0"),  # linear complexity 0: the first order tried
        ([4, 6, 9], 1, None),  # c = 3/2 at order 1: a Fatou violation
        ([1, 0, 0, 0, 0, 0], 3, None),  # u_(n+1) = 0*u_n: a zero trailing coefficient
        ([0, 1, 2, 4, 8, 16], 3, None),  # chi = x(x - 2)
        ([1, 2, 6, 24, 120, 720, 5040, 40320], 3, None),  # n!: complexity 4 > bound
        ([1, 1, 2, 3, 5, 8, 13], 8, "lrs 2 1 1 1 1"),  # 2L <= 7: bound 8 is not reached
        ([1, 1, 2, 3], 8, "lrs 2 1 1 1 1"),
        ([1, 1, 2], 8, None),  # complexity 2 needs 4 terms
    ],
)
def test_fit_edge_cases_match_per_order_rref(terms, bound, expected):
    fit, _ = _assert_fit_matches_reference(terms, bound)
    assert (str(fit.spec) if fit.ok else None) == expected


def test_fit_order_drops_under_decimation():
    # u_n = u_(n-2): u_(2n) is constant (order 1), u_(3n) alternates (order 2)
    spec = LrsSpec(2, (0, 1), (3, 5))
    for m, expected in ((2, "lrs 1 1 5"), (3, "lrs 2 0 1 3 5")):
        terms = generate(spec, m * 12)[m - 1 :: m]
        fit, _ = _assert_fit_matches_reference(terms, 2)
        assert str(fit.spec) == str(decimate(spec, m)) == expected


def test_decimate_order_12_at_m_30():
    # the order-12 spec whose per-order RREF re-minimization took 0.62 s
    spec = LrsSpec(12, (9, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 7), tuple(range(1, 13)))
    dec = decimate(spec, 30)
    terms = generate(spec, 30 * 32)[29::30]
    assert dec == _reference_fit(terms, 12)[0]
    assert dec.order == 12 and generate(dec, 32) == terms


def test_fit_roundtrip_random_specs():
    rng = random.Random(29)
    done = 0
    while done < 40:
        k = rng.randint(1, 5)
        spec = LrsSpec(
            k,
            tuple(rng.randint(-9, 9) for _ in range(k - 1)) + (rng.choice([i for i in range(-9, 10) if i]),),
            tuple(rng.randint(-9, 9) for _ in range(k)),
        )
        terms = generate(spec, 2 * k + 8)
        if hankel_rank(terms) < k:
            continue  # the draw was secretly of lower order
        fit = fit_minimal_recurrence(terms, bound=k)
        assert fit.ok
        assert fit.spec.order == k
        assert fit.spec.coeffs == spec.coeffs
        assert fit.spec.initial == spec.initial
        done += 1


def test_decimate_fibonacci():
    dec = decimate(FIBONACCI, 2)
    assert dec.coeffs == (3, -1)
    assert dec.initial == (1, 3)
    assert decimate(FIBONACCI, 1) is FIBONACCI


def test_decimate_agrees_with_direct_eval():
    rng = random.Random(31)
    # m = 36 is the decimation by M^2 that a reduction with M = 6 runs
    for k, m in [(rng.randint(1, 6), rng.randint(2, 4)) for _ in range(5)] + [(6, 36)]:
        spec = LrsSpec(
            k,
            tuple(rng.randint(-2, 2) for _ in range(k - 1)) + (rng.choice([-2, -1, 1, 2]),),
            tuple(rng.randint(-3, 3) for _ in range(k)),
        )
        dec = decimate(spec, m)
        full = generate(spec, m * 100)
        decimated = generate(dec, 100)
        assert decimated == [full[m * n - 1] for n in range(1, 101)]


def _char_poly(spec: LrsSpec) -> Poly:
    """x^k - c1*x^(k-1) - ... - ck."""
    return Poly(*(-c for c in reversed(spec.coeffs)), 1)


def _monic_ratio_polynomial(spec: LrsSpec) -> Poly:
    """R itself: `_ratio_polynomial` divided by its leading coefficient c^(k^2)."""
    scaled = _ratio_polynomial(spec)
    assert scaled[-1] == (-spec.coeffs[-1]) ** (spec.order**2)  # c = -ck: R is monic
    return Poly(*(Fraction(b, scaled[-1]) for b in scaled))


def _resultant(f: Poly, g: Poly) -> Fraction:
    """Resultant via the Sylvester matrix determinant: the reference that
    `_ratio_polynomial`'s power-sum construction is checked against."""
    n, m = f.degree, g.degree
    if n < 0 or m < 0:
        return Fraction(0)
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    size = n + m
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = [[Fraction(0)] * i + fc + [Fraction(0)] * (size - n - 1 - i) for i in range(m)]
    rows += [[Fraction(0)] * i + gc + [Fraction(0)] * (size - m - 1 - i) for i in range(n)]
    det = Fraction(1)
    for c in range(size):  # elimination over Q: the product of the pivots, negated per row swap
        pivot = next((i for i in range(c, size) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, size):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def test_poly_resultant_known():
    # res(x^2-1, x-2) = (2-1)(2+1) = 3
    assert _resultant(Poly(-1, 0, 1), Poly(-2, 1)) == 3
    # shared root gives 0
    assert _resultant(Poly(-1, 0, 1), Poly(-1, 1)) == 0


def test_ratio_polynomial_matches_sylvester_resultant():
    # Res_y(chi(y), chi(x*y)) = prod_(i,j) (x*r_i - r_j) = (-chi(0))^k * (x - 1)^e * R(x)
    rng = random.Random(47)
    specs = [FIBONACCI, LrsSpec(2, (0, 1), (0, 2)), LrsSpec(2, (2, -2), (1, 1))]
    specs.append(LrsSpec(4, (4, -5, 4, -4), (1, 0, 0, 0)))  # (x - 2)^2 (x^2 + 1): e = 2^2 + 1 + 1
    for _ in range(6):
        k = rng.randint(2, 4)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(k - 1)) + (rng.choice([-3, -2, -1, 1, 2, 3]),)
        specs.append(LrsSpec(k, coeffs, (1,) * k))
    for spec in specs:
        chi = _char_poly(spec)
        k = chi.degree
        ratio = _monic_ratio_polynomial(spec)
        e = k * k - ratio.degree  # the pairs (i, j) with r_i = r_j
        assert ratio.leading == 1 and ratio(1) != 0
        assert e == (6 if spec.coeffs == (4, -5, 4, -4) else k)
        quotients = []
        x0 = 2
        while len(quotients) < k * k + 1:
            res = _resultant(chi, Poly(*[c * x0**i for i, c in enumerate(chi.coeffs)]))
            if ratio(x0) == 0:
                assert res == 0
            else:
                quotients.append(res / ((x0 - 1) ** e * ratio(x0)))
            x0 += 1
        assert set(quotients) == {(-chi(0)) ** k}


def test_degenerate_plus_minus_one():
    spec = LrsSpec(2, (0, 1), (0, 2))  # u_n = 1 + (-1)^n
    verdict, order = is_degenerate(spec)
    assert verdict and order == 2


def test_fibonacci_nondegenerate():
    assert is_degenerate(FIBONACCI) == (False, None)


def test_gaussian_roots_degenerate():
    # x^2 - 2x + 2 has roots 1 +- i whose ratio is i (order 4)
    spec = LrsSpec(2, (2, -2), (1, 1))
    verdict, order = is_degenerate(spec)
    assert verdict and order == 4


def test_nondegenerate_reduction():
    m, reduced = nondegenerate_reduction(FIBONACCI, list(ratio_orders(FIBONACCI)))
    assert m == 1 and reduced is FIBONACCI
    spec = LrsSpec(2, (0, 1), (0, 2))
    m, reduced = nondegenerate_reduction(spec, list(ratio_orders(spec)))
    assert m == 2
    assert reduced.order == 1 and reduced.coeffs == (1,) and reduced.initial == (2,)
    assert is_degenerate(reduced) == (False, None)


def test_nondegenerate_reduction_random_property():
    rng = random.Random(37)
    done = 0
    while done < 15:
        k = rng.randint(2, 3)
        spec = LrsSpec(
            k,
            tuple(rng.randint(-3, 3) for _ in range(k - 1)) + (rng.choice([-2, -1, 1, 2]),),
            tuple(rng.randint(-3, 3) for _ in range(k)),
        )
        _, reduced = nondegenerate_reduction(spec, list(ratio_orders(spec)))
        assert is_degenerate(reduced) == (False, None)
        done += 1


def _reference_reduction(spec: LrsSpec) -> tuple[int, LrsSpec]:
    """The divide-and-rescan loop: take the least cyclotomic order of the ratio
    polynomial, divide its Phi_m out, and scan again from m = 1."""
    probe = Poly(*_ratio_polynomial(spec))
    orders = []
    while probe.degree >= 1:
        found = _reference_cyclotomic_orders(probe, spec.order**2)
        if not found:
            break
        orders.append(found[0])
        probe = poly_divmod(probe, cyclotomic_polynomial(found[0]))[0]
    m = math.lcm(*orders)
    return m, decimate(spec, m * m)


def test_one_scan_reduction_matches_divide_and_rescan():
    # cores with a root-of-unity ratio: -1 (x^2 -+ s), i (1 +- i), w (x^2 + x + 1,
    # x^3 - s), 2 and 4 (x^4 + 1); times a random factor up to order 5
    cores = [(-2, 0, 1), (3, 0, 1), (2, -2, 1), (1, 1, 1), (-2, 0, 0, 1), (1, 0, 0, 0, 1), (-5, 0, 1)]
    rng = random.Random(53)
    orders_seen = set()
    for _ in range(24):
        poly = Poly(*rng.choice(cores))
        while poly.degree < 5 and rng.random() < 0.6:
            poly = poly * Poly(rng.choice([-3, -2, -1, 1, 2, 3]), 1)
        k = poly.degree
        coeffs = tuple(int(-poly[k - i]) for i in range(1, k + 1))
        spec = LrsSpec(k, coeffs, tuple(rng.randint(-4, 4) for _ in range(k)))
        assert is_degenerate(spec)[0]
        m, reduced = nondegenerate_reduction(spec, list(ratio_orders(spec)))
        assert (m, reduced) == _reference_reduction(spec), spec
        orders_seen.add(k)
    assert orders_seen == {2, 3, 4, 5}


def test_pisano_periods_both_methods():
    for p, expected in ((5, 20), (11, 10)):
        assert lrs_period_mod_p(FIBONACCI, p, method="iteration") == expected
        assert lrs_period_mod_p(FIBONACCI, p, method="matrix") == expected


def test_period_methods_agree_randomized():
    rng = random.Random(41)
    done = 0
    while done < 25:
        k = rng.randint(1, 4)
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
        spec = LrsSpec(
            k,
            tuple(rng.randint(-4, 4) for _ in range(k - 1)) + (rng.choice([-3, -2, -1, 1, 2, 3]),),
            tuple(rng.randint(-4, 4) for _ in range(k)),
        )
        if spec.coeffs[-1] % p == 0:
            continue
        assert lrs_period_mod_p(spec, p, "iteration") == lrs_period_mod_p(spec, p, "matrix")
        done += 1


def test_period_rejects_pre_periodic_case():
    with pytest.raises(ValueError):
        lrs_period_mod_p(LrsSpec(1, (5,), (1,)), 5)


def test_square_sampled_period():
    result = square_sampled_period(FIBONACCI, 5)
    assert result.lrs_period == 20
    table = [u % 5 for u in generate(FIBONACCI, 20)]
    for n in range(1, 41):
        idx = lambda m: table[(m * m - 1) % 20]
        assert idx(n + result.period) == idx(n)
    # minimality: no proper divisor of the period works
    for d in range(1, result.period):
        if result.period % d == 0 and d < result.period:
            assert any(idx(n + d) != idx(n) for n in range(1, 21))
    # the table is not part of the printed or compared result
    assert repr(result) == "SquarePeriodResult(p=5, lrs_period=20, period=10, window=(1, 30))"
    assert result == SquarePeriodResult(5, 20, 10, (1, 30), [])


def _two_cycle_square_period(table):
    """The least T | L with u_{(n+T)^2} = u_{n^2} for n = 1..L, read off
    2L square-sampled values: the reference for the one-cycle rotation."""
    lam = len(table)
    values = [table[(n * n - 1) % lam] for n in range(1, 2 * lam + 1)]
    return min(d for d in range(1, lam + 1) if lam % d == 0 and values[d : d + lam] == values[:lam])


def test_square_sampled_walk_matches_both_period_methods():
    # one seeded spec per order 1..4 against every prime p < 300 with p not
    # dividing c_k; the walk is O(lambda) and lambda reaches p^k - 1, so it
    # runs where the matrix period is at most 20,000
    rng = random.Random(2026)
    walked = {}
    for k in (1, 2, 3, 4):
        spec = LrsSpec(
            k,
            tuple(rng.randint(-3, 3) for _ in range(k - 1)) + (rng.choice([-3, -2, -1, 1, 2, 3]),),
            tuple(rng.randint(-5, 5) for _ in range(k)),
        )
        for p in sieve_primes(300):
            if spec.coeffs[-1] % p == 0:
                continue
            lam = lrs_period_mod_p(spec, p, "matrix")
            if lam > 20_000:
                continue
            result = square_sampled_period(spec, p)
            # the walk is the iteration method, so the matrix period is the independent check
            assert result.lrs_period == lam
            assert result.period == _two_cycle_square_period(result.table)
            # every n <= 3*lam for short periods, 40 seeded ones otherwise,
            # and three indices far past the table
            indices = range(1, 3 * lam + 1)
            if lam > 40:
                indices = rng.sample(indices, 40)
            for n in [*indices, 10**18, 10**18 + 1, 7**30]:
                assert result.u_mod(n) == eval_mod(spec, n, p), (spec, p, n)
            walked[k] = walked.get(k, 0) + 1
    assert walked == {1: 61, 2: 61, 3: 62, 4: 26}


def test_square_sampled_period_memory():
    import tracemalloc

    # lam = 20136 here; the exact terms u_1..u_lam alone would take about 48 MB
    spec = LrsSpec(2, (3, 1), (1, 2))
    tracemalloc.start()
    try:
        result = square_sampled_period(spec, 10067)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.lrs_period == 20136
    assert peak < 250_000  # the table and the square-sampled values as 4-byte machine integers


def test_square_sampled_period_refuses_a_long_walk_before_it_starts():
    import tracemalloc

    # p^5 > MAX_WALK, and u mod 223 has period 2,484,112,961 > MAX_WALK: the
    # walk, which would hold MAX_WALK terms before giving up, never starts
    spec = LrsSpec(5, (1, 1, 0, 0, 1), (1, 1, 1, 1, 1))
    assert lrs_period_mod_p(spec, 223) == 2_484_112_961
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^the recurrence mod 223 does not return within 10000000 steps"):
            square_sampled_period(spec, 223)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _reference_walk(spec, p):
    """u_1, u_2, ... mod p until the initial state returns, one term at a time
    through a window of the last k terms: the reference for `lrs._walk`."""
    k = spec.order
    coeffs = [c % p for c in reversed(spec.coeffs)]
    start = [u % p for u in spec.initial]
    window = deque(start, maxlen=k)
    while True:
        yield window[0]
        u = sum(map(mul, coeffs, window)) % p
        window.append(u)
        if u == start[-1] and list(window) == start:
            return


@pytest.fixture
def recorded_walk(monkeypatch):
    """`lrs._walk` as a list of its chunks, with the fields of its span."""
    spans = []

    @contextmanager
    def span(name, **fields):
        spans.append((name, fields))
        yield fields

    monkeypatch.setattr(lrs, "_span", span)

    def walk(spec, p):
        spans.clear()
        chunks = list(lrs._walk(spec, p))
        [(name, fields)] = spans
        assert name == "lrs.walk" and (fields["p"], fields["order"]) == (p, spec.order)
        return chunks, fields

    return walk


@pytest.mark.parametrize("cap", [lrs.WALK_CHUNK, 300], ids=["default-cap", "cap-300"])
def test_walk_matches_the_reference_walk(recorded_walk, monkeypatch, cap):
    # a seeded spec per order 1..5 against every prime p < 300 with p not
    # dividing c_k and lambda <= 20,000; one p in (2^32, 2^64], stored as "Q",
    # and one p > 2^64, as a list; lambda at a chunk's end; and lambda = 1,
    # from u = 0 and a constant u
    monkeypatch.setattr(lrs, "WALK_CHUNK", cap)
    rng = random.Random(29)
    cases = []
    for k in range(1, 6):
        spec = LrsSpec(
            k,
            tuple(rng.randint(-3, 3) for _ in range(k - 1)) + (rng.choice([-3, -2, -1, 1, 2, 3]),),
            tuple(rng.randint(-5, 5) for _ in range(k)),
        )
        cases += [(spec, p) for p in sieve_primes(300) if spec.coeffs[-1] % p and lrs_period_mod_p(spec, p) <= 20_000]
    # characteristic roots of orders d1 and d2 mod p, d1 and d2 dividing p - 1: lambda = lcm(d1, d2)
    for p, g, d1, d2 in ((4_294_967_371, 2, 1319, 15), (18_446_744_073_709_551_653, 3, 997, 13)):
        a, b = pow(g, (p - 1) // d1, p), pow(g, (p - 1) // d2, p)
        cases.append((LrsSpec(2, (a + b, -a * b), (1, 5)), p))
    # lambda = 64 and 144, where the first and second chunks end: the state returns at a buffer's last index
    cases += [(LrsSpec(1, (125,), (1,)), 193), (LrsSpec(2, (125 + 238, -125 * 238), (1, 5)), 433)]
    cases += [(LrsSpec(3, (1, -2, 3), (0, 0, 0)), 7), (LrsSpec(2, (2, -1), (4, 4)), 11), (LrsSpec(1, (1,), (9,)), 5)]
    lams, widest = [], 0
    for spec, p in cases:
        chunks, span = recorded_walk(spec, p)
        terms = list(_reference_walk(spec, p))
        lam = len(terms)
        assert [u for chunk in chunks for u in chunk] == terms, (spec, p)
        assert sum(map(len, chunks)) == span["period"] == lam == lrs_period_mod_p(spec, p)
        assert span["chunks"] == len(chunks) and max(map(len, chunks)) <= cap
        assert lam <= span["terms"] <= lam + lam / 4 + 64
        assert all(isinstance(chunk, list) if p > 2**64 else chunk.typecode == ("I" if p < 2**32 else "Q")
                   for chunk in chunks)
        lams.append(lam)
        widest = max(widest, *map(len, chunks))
    assert len(lams) == 219 and lams[-5:] == [64, 144, 1, 1, 1]
    assert (widest == cap) == (cap == 300)  # every lambda here is far below the default cap


def test_a_walk_bounded_by_its_caller_refuses_exactly_the_returns_past_it(monkeypatch):
    # with a bound given, no period is read from x^t mod chi first; the walk
    # takes up to that many steps, also where a chunk ends (lambda = 64, 144)
    def no_precheck(*args):
        raise AssertionError("the bounded walk read the period from x^t mod chi")

    monkeypatch.setattr(lrs, "_state_seq_period_matrix", no_precheck)
    monkeypatch.setattr(lrs, "WALK_CHUNK", 300)
    cases = [(FIBONACCI, 7), (LrsSpec(1, (125,), (1,)), 193), (LrsSpec(2, (125 + 238, -125 * 238), (1, 5)), 433)]
    cases += [(LrsSpec(2, (3, 1), (1, 2)), 100_019), (LrsSpec(2, (1, 7), (1, 1)), 1_009)]
    for spec, p in cases:
        lam = len(list(_reference_walk(spec, p)))
        for bound in (lam, lam + 1, 2 * lam):
            assert square_sampled_period(spec, p, bound).lrs_period == lam
        for bound in (lam - 1, lam // 2, 1, 0):
            with pytest.raises(ValueError, match=f"^the recurrence mod {p} does not return within {bound} steps$"):
                square_sampled_period(spec, p, bound)


def test_square_period_of_an_odd_lambda_longer_than_its_square_period():
    # v_n = u_{n^2} mod L mirrors about L/2; at odd L the cycle has no middle term
    for spec, p, lam, period in ((LrsSpec(2, (6, -3), (4, 4)), 11, 15, 5), (LrsSpec(2, (-1, -1), (2, -4)), 19, 3, 1)):
        result = square_sampled_period(spec, p)
        assert (result.lrs_period, result.period, result.window) == (lam, period, (1, lam + period))
        assert result.period == _two_cycle_square_period(result.table)
        assert list(result.table) == [u % p for u in generate(spec, lam)]


def test_iteration_period_holds_one_chunk_not_the_table():
    import tracemalloc

    # lambda = 100,018: the table would take 400 KB as 4-byte machine integers,
    # and the walk holds one chunk, below WALK_CHUNK terms
    spec = LrsSpec(2, (3, 1), (1, 2))
    tracemalloc.start()
    try:
        lam = lrs_period_mod_p(spec, 100_019, "iteration")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lam == lrs_period_mod_p(spec, 100_019) == 100_018
    assert peak < 4 * lrs.WALK_CHUNK


def test_growth_diagnostic_dominant_root():
    import math

    # Fibonacci: log|u_n| / n -> log(golden ratio)
    terms = generate(FIBONACCI, 400)
    rate = math.log(terms[-1]) / 400
    assert abs(rate - math.log((1 + math.sqrt(5)) / 2)) < 0.01


def _squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'), made monic: the distinct roots of f, each once."""
    a, b = f, Poly(*[i * c for i, c in enumerate(f.coeffs)][1:])
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    q = poly_divmod(f, a)[0]
    return q * (1 / q.leading)


def test_squarefree_part():
    f = Poly(-1, 1) * Poly(-1, 1) * Poly(2, 1) * Poly(1, 0, 1)
    assert _squarefree_part(f) == Poly(-1, 1) * Poly(2, 1) * Poly(1, 0, 1)
    assert _squarefree_part(Poly(3, 6)) == Poly(Fraction(1, 2), 1)


def _numeric_degeneracy_oracle(spec, bits=120):
    """Root-of-unity ratio detection with high-precision numerics (mpmath)."""
    import mpmath

    psi = _squarefree_part(_char_poly(spec))
    with mpmath.workprec(bits):
        coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in reversed(psi.coeffs)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        tol = mpmath.mpf(2) ** (-60)
        best = None
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                if i == j:
                    continue
                ratio = a / b
                power = ratio
                for m in range(1, 2 * spec.order**2 + 1):
                    if abs(power - 1) < tol:
                        best = m if best is None else min(best, m)
                        break
                    power *= ratio
    return (best is not None), best


def test_degeneracy_matches_numeric_oracle():
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        k = rng.randint(2, 4)
        spec = LrsSpec(
            k,
            tuple(rng.randint(-4, 4) for _ in range(k - 1)) + (rng.choice([-3, -2, -1, 1, 2, 3]),),
            tuple(rng.randint(-4, 4) for _ in range(k)),
        )
        exact = is_degenerate(spec)
        numeric = _numeric_degeneracy_oracle(spec)
        assert exact[0] == numeric[0], (spec, exact, numeric)
        if exact[0]:
            assert exact[1] == numeric[1], (spec, exact, numeric)
        checked += 1


def test_period_divides_matrix_order_bound():
    # the state period divides p^ceil(log_p k) * lcm(p^j - 1, j <= k)
    rng = random.Random(67)
    done = 0
    while done < 20:
        k = rng.randint(1, 4)
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47])
        spec = LrsSpec(
            k,
            tuple(rng.randint(-4, 4) for _ in range(k - 1)) + (rng.choice([-3, -2, -1, 1, 2, 3]),),
            tuple(rng.randint(-4, 4) for _ in range(k)),
        )
        if spec.coeffs[-1] % p == 0:
            continue
        period = lrs_period_mod_p(spec, p)
        pk = 1
        while pk < k:
            pk *= p
        assert (pk * math.lcm(*(p**j - 1 for j in range(1, k + 1)))) % period == 0
        done += 1
