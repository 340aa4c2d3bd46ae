"""Integer linear recurrence sequences: evaluation, minimal fitting,
decimation, degeneracy detection, and periods modulo p.

Root-sensitive questions (degeneracy, root-of-unity ratios) are answered
exactly, by Newton's identities on power sums and cyclotomic divisibility;
numerical root finding only ever appears in tests as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, mod, mul

from . import _span
from .ntkernel import (
    cyclotomic_factor_orders,
    echelon,
    is_prime,
    order_from_multiple,
)

DEFAULT_FIT_BOUND = 12
# longest walk of the state mod p: the period of u mod p can reach p^k - 1
MAX_WALK = 10_000_000
# most terms one chunk of the walk holds: 256 KB as 4-byte machine integers
WALK_CHUNK = 1 << 16
# largest coefficient of a power of x that `eval_exact` squares, and largest u_n it returns,
# in bits: a bound on its work, as each bit of n costs O(k^2) products of such coefficients.
# Fibonacci's u_n passes it at n = 20,577; at order 32, u_n = C(n-2, 31) took 23 s at n = 2^464,
# 0.1 s a squaring (Python 3.11, 2-core machine).  No print bound: the CLI checks u_n for that
MAX_TERM_BITS = 14_284


@dataclass(frozen=True)
class LrsSpec:
    """Order-k recurrence u(n+k) = c1*u(n+k-1) + ... + ck*u(n), with u(1..k)."""

    order: int
    coeffs: tuple[int, ...]
    initial: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.coeffs) != self.order or len(self.initial) != self.order:
            raise ValueError("coefficients and initial terms must have length = order")
        if self.coeffs[-1] == 0:
            raise ValueError("the last coefficient must be non-zero")

    def __str__(self):
        return f"lrs {self.order} {' '.join(map(str, self.coeffs))} {' '.join(map(str, self.initial))}"


FIBONACCI = LrsSpec(2, (1, 1), (1, 1))


def generate(spec: LrsSpec, n_terms: int) -> list[int]:
    """u_1..u_N by linear iteration (exact)."""
    terms = list(spec.initial[:n_terms])
    while len(terms) < n_terms:
        terms.append(sum(c * terms[-i] for i, c in enumerate(spec.coeffs, start=1)))
    return terms


def eval_exact(spec: LrsSpec, n: int) -> int:
    """u_n = sum of r_i*r_j*u_(i+j+b+1), as x^(n-1) = r^2 * x^b with r = x^s mod mu
    and n - 1 = 2s + b; ValueError once a power of x on the way, or u_n, passes
    `MAX_TERM_BITS` bits.  mu, the minimal recurrence of u_1..u_2k, divides chi
    and is integral (Fatou, Gauss), so r grows as u does, not as a root of chi
    that the initial terms cancel."""
    if n < 1:
        raise ValueError("indices start at 1")
    if n <= spec.order:
        return spec.initial[n - 1]
    terms = generate(spec, 2 * spec.order)
    mu = fit_minimal_recurrence(terms, spec.order).spec
    r = _x_pow_mod(mu.coeffs, (n - 1) // 2, None)
    u = sum(a * sum(map(mul, r, terms[i + (n - 1) % 2 :])) for i, a in enumerate(r))
    if u.bit_length() > MAX_TERM_BITS:
        raise ValueError(f"u_{n} has {u.bit_length()} bits, past the term bound {MAX_TERM_BITS}")
    return u


def _x_pow_mod(coeffs: tuple[int, ...], t: int, m: int | None) -> list[int]:
    """[r_0, ..., r_(k-1)] with x^t = r_0 + r_1*x + ... + r_(k-1)*x^(k-1) mod (chi, m), or
    mod chi over Z when m is None: then ValueError once a power of x on the way
    has a coefficient past `MAX_TERM_BITS` bits.  chi = x^k - c1*x^(k-1) - ... - ck.
    Each bit of t costs one square and one reduction, O(k^2), where a
    companion-matrix product costs O(k^3)."""
    k = len(coeffs)
    low = [c if m is None else c % m for c in reversed(coeffs)]  # x^k = ck + c(k-1)*x + ... + c1*x^(k-1)
    r = [1 if m is None else 1 % m] + [0] * (k - 1)
    for s, bit in enumerate(bin(t)[2:], 1):
        prod = [0] * (2 * k)  # r^2, times x when the bit is set
        for i, a in enumerate(r, int(bit)):
            if a:
                for j, b in enumerate(r, i):
                    prod[j] += a * b
        for d in range(2 * k - 1, k - 1, -1):  # x^d = x^(d-k) * x^k; popped, so freed once folded
            top = prod.pop() if m is None else prod.pop() % m
            if top:
                for i, c in enumerate(low, d - k):
                    prod[i] += top * c
        r = prod if m is None else [a % m for a in prod]
        if m is None and (size := max(map(int.bit_length, r))) > MAX_TERM_BITS:
            raise ValueError(f"x^{t >> (t.bit_length() - s)} mod the characteristic polynomial has a {size}-bit"
                             f" coefficient, past the term bound {MAX_TERM_BITS}")
    return r


def eval_mod(spec: LrsSpec, n: int, p: int) -> int:
    """u_n mod p = r_0*u_1 + ... + r_(k-1)*u_k with r = x^(n-1) mod chi; n may be astronomically large."""
    if n < 1:
        raise ValueError("indices start at 1")
    return sum(map(mul, _x_pow_mod(spec.coeffs, n - 1, p), spec.initial)) % p


# ---------------------------------------------------------------------------
# minimal-recurrence fitting


@dataclass
class FitResult:
    spec: LrsSpec | None  # None: no integer recurrence within the bound fits
    fatou_violations: list[tuple[int, tuple[Fraction, ...]]]  # (order, rational coeffs)

    @property
    def ok(self) -> bool:
        return self.spec is not None


def hankel_rank(terms: list[int]) -> int:
    """Rank of the Hankel matrix of the terms: the detectable minimal order."""
    n = len(terms)
    if n == 0:
        return 0
    rows = (n + 1) // 2
    mat = [[Fraction(terms[i + j]) for j in range(n - rows + 1)] for i in range(rows)]
    return len(echelon(mat)[1])


def _berlekamp_massey(terms: list[int]) -> tuple[int, list[int]]:
    """Linear complexity L and [C_0, ..., C_L] over Z, C_0 != 0, with
    C_0*u_n + C_1*u_(n-1) + ... + C_L*u_(n-L) = 0 for every window of the terms.

    Massey's algorithm over Q, kept fraction-free: the update
    C - (d/b)*x^s*B is scaled by b, and each C is divided by its content.
    """
    conn, prev = [1], [1]  # C, and B: the C before the last length change
    length, shift, prev_d = 0, 1, 1
    for n in range(len(terms)):
        d = sum(c * terms[n - i] for i, c in enumerate(conn))
        if d == 0:
            shift += 1
            continue
        update = [prev_d * c for c in conn] + [0] * (shift + len(prev) - len(conn))
        for i, b in enumerate(prev, shift):
            update[i] -= d * b
        g = math.gcd(*update)
        if 2 * length <= n:
            prev, prev_d = conn, d
            length, shift = n + 1 - length, 1
        else:
            shift += 1
        conn = [c // g for c in update]
    return length, conn + [0] * (length + 1 - len(conn))


def fit_minimal_recurrence(terms: list[int], bound: int = DEFAULT_FIT_BOUND) -> FitResult:
    """Smallest-order integer recurrence reproducing every supplied term.

    Berlekamp-Massey gives the linear complexity L and the unique order-L
    recurrence mu over Q (unique once 2L <= len(terms)); no order below L
    fits.  For L <= k <= len(terms)/2 every order-k recurrence has
    characteristic polynomial mu*g with g monic, so its last coefficient is 0
    when mu's is, and by Gauss's lemma it is integral only when mu is.  A
    non-integral mu is recorded as the order-L Fatou violation (an integer
    sequence that truly satisfies an integer recurrence has integer minimal
    coefficients).
    """
    if len(terms) < 2:
        raise ValueError("need at least two terms")
    length, conn = _berlekamp_massey(terms)
    if length == 0:  # all zeros: the first order tried is u_(n+1) = u_n
        length, conn = 1, [1, -1]
    if 2 * length > len(terms) or length > bound or conn[-1] == 0:
        return FitResult(None, [])
    lead = conn[0]
    if any(c % lead for c in conn):
        return FitResult(None, [(length, tuple(Fraction(-c, lead) for c in conn[1:]))])
    spec = LrsSpec(length, tuple(-c // lead for c in conn[1:]), tuple(terms[:length]))
    if generate(spec, len(terms)) == terms:
        return FitResult(spec, [])
    return FitResult(None, [])


# ---------------------------------------------------------------------------
# decimation and degeneracy


def _power_sums(a: list[int], n: int) -> list[int]:
    """p_0..p_n, the power sums of the roots of x^d + a_1*x^(d-1) + ... + a_d.

    a = [1, a_1, ..., a_d] over Z; Newton's identities keep the sums integral.
    """
    d = len(a) - 1
    a = a + [0] * (n - d)  # a_i = 0 for i > d
    p = [d]
    for t in range(1, n + 1):
        p.append(-t * a[t] - sum(a[i] * p[t - i] for i in range(1, min(t, d + 1))))
    return p


def _poly_from_power_sums(p: list[int]) -> list[int]:
    """[1, a_1, ..., a_n] of the monic polynomial whose n roots have the power sums p_0..p_n.

    The roots must be algebraic integers, so that every a_t is an integer.
    """
    a = [1]
    for t in range(1, len(p)):
        total = -sum(a[t - i] * p[i] for i in range(1, t + 1))
        assert total % t == 0, "the roots must be algebraic integers"
        a.append(total // t)
    return a


def decimate(spec: LrsSpec, m: int) -> LrsSpec:
    """A spec whose terms are u_{m*n}: the minimal fit of 2k + 8 of them, which
    satisfy chi(C^m) of degree k (C the companion matrix), so the fit with
    bound k succeeds; it checks its spec against all 2k + 8 terms."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return spec
    k = spec.order
    terms = generate(spec, m * (2 * k + 8))[m - 1 :: m]
    fit = fit_minimal_recurrence(terms, bound=k)
    assert fit.ok, "decimated sequence must fit within the original order"
    return fit.spec


def _ratio_polynomial(spec: LrsSpec) -> list[int]:
    """c^(k^2)*R, ascending, R the monic polynomial of the ratios r_i/r_j != 1 of chi's roots.

    chi = x^k + a_1*x^(k-1) + ... + a_k = x^k - c1*x^(k-1) - ... - ck, with
    c = a_k != 0.  The y_j = c/r_j are algebraic integers, the roots of
    y^k + a_(k-1)*y^(k-1) + a_(k-2)*c*y^(k-2) + ... + c^(k-1), so the k^2
    products r_i*y_j = c*r_i/r_j have the integer power sums p_t(r)*p_t(y)
    and a monic integer polynomial S.  S(c*x) = c^(k^2) * (x-1)^e * R(x),
    where e counts the pairs with r_i = r_j: every factor x - 1 is stripped
    by exact division.  The scale c^(k^2) stays: Phi_m is primitive, so it
    divides c^(k^2)*R exactly when it divides R (Gauss's lemma).
    """
    k = spec.order
    a = [1, *(-c for c in spec.coeffs)]
    c = a[k]
    y = [1] + [a[k - i] * c ** (i - 1) for i in range(1, k + 1)]
    sums = zip(_power_sums(a, k * k), _power_sums(y, k * k))
    ratio = [b * c ** (k * k - i) for i, b in enumerate(_poly_from_power_sums([u * v for u, v in sums]))]
    while True:
        *quotient, rem = accumulate(ratio)  # synthetic division by x - 1
        if rem:
            return ratio[::-1]
        ratio = quotient


def ratio_orders(spec: LrsSpec):
    """Yield, ascending, the orders m of the roots of unity among the ratios of
    distinct characteristic roots.

    Exact: the ratio polynomial is built from power sums by Newton's
    identities and tested for cyclotomic factors Phi_m with phi(m) <= k^2 (a
    ratio of two degree-<=k algebraic numbers that is a root of unity has
    order m with phi(m) <= k^2).  The polynomial is built once, before the
    first order is asked for.
    """
    return cyclotomic_factor_orders(_ratio_polynomial(spec), spec.order**2)


def is_degenerate(spec: LrsSpec) -> tuple[bool, int | None]:
    """Is some ratio of distinct characteristic roots a root of unity?
    Returns the smallest witness order when degenerate: the first of
    `ratio_orders`, whose scan stops there."""
    m = next(ratio_orders(spec), None)
    return m is not None, m


def nondegenerate_reduction(spec: LrsSpec, orders: list[int], max_decimation: float = math.inf) -> tuple[int, LrsSpec]:
    """(M, decimation by M^2) with every root-of-unity ratio collapsed.

    M is the lcm of the orders, all of `ratio_orders(spec)`, which the caller
    gives so that one scan also gives it the verdict and the witness; after
    decimating by M^2 those ratios become 1 and the corresponding roots
    merge, so the result is non-degenerate.  An M^2 above max_decimation is
    refused before any term is generated.
    """
    m = math.lcm(*orders)
    if m == 1:
        return 1, spec
    if m * m > max_decimation:
        raise ValueError(f"the reduction decimates by M^2 = {m * m}, more than the decimation bound {max_decimation}")
    reduced = decimate(spec, m * m)
    still_degenerate, _ = is_degenerate(reduced)
    assert not still_degenerate, "reduction must produce a non-degenerate sequence"
    return m, reduced


# ---------------------------------------------------------------------------
# periods modulo p


def _walk(spec: LrsSpec, p: int, max_steps: int | None = None):
    """u_1, u_2, ... mod p until the initial state returns: L terms in all, L
    the period of u mod p (p does not divide c_k, so the state map is a
    bijection), in consecutive chunks.  When L > max_steps, ValueError is
    raised once the walk passes max_steps terms without a return.  With
    max_steps None the bound is `MAX_WALK`, and a larger L is refused before
    the first term, from x^t mod chi when p^k > `MAX_WALK`.

    A chunk is an array of machine integers, or a list when p > 2^64.  It is
    built over a buffer that starts with the last k terms: iterators at
    offsets 0..k-1 of the buffer feed maps that multiply, add and reduce mod
    p, and the buffer is extended from that pipeline, term by term, so each
    term is in place before an iterator reaches it (list and array iterators
    read the length at every step).  A buffer's index 0 was
    searched in the buffer before, so the state returns at the first index
    past 0 that starts u_1..u_k.  Chunks grow by a quarter from 64 terms up to
    `WALK_CHUNK`, so the walk computes at most L/4 + 64 terms past L, and
    holds one chunk at a time.  Under EDSLAB_TRACE=1 it writes one `lrs.walk`
    span with p, the order, the period, the terms computed and the chunks.
    """
    k = spec.order
    if max_steps is None:
        max_steps = MAX_WALK
        # L <= p^k - 1: only when p^k > MAX_WALK is L read first, from x^t mod chi
        if p**k > MAX_WALK and _state_seq_period_matrix(spec, p) > MAX_WALK:
            raise ValueError(f"the recurrence mod {p} does not return within {MAX_WALK} steps")
    with _span("lrs.walk", p=p, order=k) as record:
        from array import array  # here, not at the top: a C extension that only the walk needs

        code = next((c for c in "IQ" if p <= 256 ** array(c).itemsize), None)  # "B" and "H" store more slowly
        start = [u % p for u in spec.initial]
        if code:
            start = array(code, start)
        buffer, size, offset, generated, chunks = start[:], 64, 0, 0, 0
        while True:  # iterated mod p: the exact terms would need O(L^2) bits
            # u_(n+k) = c_k*u_n + ... + c_1*u_(n+k-1): the iterator at offset i reads u_(n+i)
            terms = None
            for i, c in enumerate(reversed(spec.coeffs)):
                product = map(mul, repeat(c % p), islice(buffer, i, None))
                terms = product if terms is None else map(add, terms, product)
            buffer.extend(islice(map(mod, terms, repeat(p)), size))
            generated += size
            at = _first_return(buffer, start)
            chunks += 1
            searched = offset + (len(buffer) - k if at is None else at - 1)  # the state returns at no step up to it
            if searched >= max_steps:
                raise ValueError(f"the recurrence mod {p} does not return within {max_steps} steps")
            if at is not None:
                del buffer[at:]
                record.update(period=offset + at, terms=generated, chunks=chunks)
                yield buffer
                return
            tail = buffer[-k:]
            del buffer[-k:]
            offset += len(buffer)
            yield buffer
            buffer, size = tail, min(size + size // 4, WALK_CHUNK)


def _first_return(buffer, start) -> int | None:
    """The least index j > 0 with buffer[j : j + k] == start, k = len(start),
    or None: C-level `index` finds each u_1, a slice compares the rest."""
    k, at = len(start), 0
    while True:
        try:
            at = buffer.index(start[0], at + 1, len(buffer) - k + 1)
        except ValueError:
            return None
        if buffer[at : at + k] == start:
            return at


def _state_seq_period_matrix(spec: LrsSpec, p: int) -> int:
    """Minimal T with C^T s = s for the companion matrix C, via divisor
    refinement of a known multiple.

    F_p[x]/(chi) is F_p[C], so C^T s = s exactly when r = x^T mod chi gives
    u_(j+T) = r_0*u_j + ... + r_(k-1)*u_(j+k-1) = u_j for j = 1..k.  As p
    is prime (`_require_purely_periodic`), the order of C divides
    p^ceil(log_p k) * lcm(p^j - 1, j<=k), and so does the orbit period;
    `order_from_multiple` strips prime factors while the state still returns.
    """
    k = spec.order
    terms = [u % p for u in generate(spec, 2 * k - 1)]
    bound = math.lcm(*(p**j - 1 for j in range(1, k + 1))) * next(p**e for e in range(k) if p**e >= k)

    def returns(t: int) -> bool:
        r = _x_pow_mod(spec.coeffs, t, p)
        return all(sum(map(mul, r, terms[j : j + k])) % p == terms[j] for j in range(k))

    assert returns(bound)
    return order_from_multiple(bound, returns)


def _require_purely_periodic(spec: LrsSpec, p: int) -> None:
    if not is_prime(p):
        raise ValueError("p must be prime")
    if spec.coeffs[-1] % p == 0:
        raise ValueError(f"p={p} divides the last coefficient: the reduction is not purely periodic")


def lrs_period_mod_p(spec: LrsSpec, p: int, method: str = "matrix") -> int:
    """Minimal period of (u_n mod p); requires p not dividing the last coefficient.

    Two implementations: "iteration" sums the chunk lengths of one `_walk`
    of the state, holding one chunk at a time, and refuses a period above
    `MAX_WALK` before it starts;
    "matrix" refines a divisor bound on the companion-matrix order.  They
    agree and can cross-check each other.
    """
    _require_purely_periodic(spec, p)
    if method == "iteration":
        return sum(map(len, _walk(spec, p)))
    if method == "matrix":
        return _state_seq_period_matrix(spec, p)
    raise ValueError(f"unknown method {method!r}")


@dataclass
class SquarePeriodResult:
    p: int
    lrs_period: int  # minimal period of u_n mod p
    period: int  # minimal period of n -> u_{n^2} mod p
    window: tuple[int, int]
    table: array | list[int] = field(repr=False, compare=False)  # u_1..u_lrs_period mod p

    def u_mod(self, n: int) -> int:
        """u_n mod p for any n >= 1, read from the table of one period."""
        return self.table[(n - 1) % self.lrs_period]


def square_sampled_period(spec: LrsSpec, p: int, max_steps: int | None = None) -> SquarePeriodResult:
    """Minimal T with u_{(n+T)^2} = u_{n^2} (mod p) for all n, fully verified.

    One `_walk` of the state mod p gives the period L of u, and its chunks
    extend the table u_1..u_L mod p that `u_mod` reads.  It and one L-cycle
    of v_n = u_{n^2} are held as machine integers (in lists when p > 2^64),
    and as (L - n)^2 = n^2 (mod L), half of v is read from the table and half
    mirrored.  v is purely periodic with period dividing L, and its periods
    are the multiples of the least one; `order_from_multiple` strips primes
    from L while a rotation by the candidate, compared without a copy, leaves
    the cycle unchanged.  When L > max_steps, the walk raises ValueError
    once it has taken that many steps; with max_steps None, when L >
    `MAX_WALK`, before it starts.
    """
    _require_purely_periodic(spec, p)
    chunks = _walk(spec, p, max_steps)
    table = next(chunks)
    for chunk in chunks:
        table.extend(chunk)
    chunk = None  # held in the table now: not held twice while v is built
    lam = len(table)
    values = table[:0]  # empty, and of the table's type
    values.extend(table[(n * n - 1) % lam] for n in range(lam // 2 + 1))  # v_0..v_(L/2); v_0 = u_L
    values.extend(reversed(values[1 : (lam + 1) // 2]))  # v_(L/2+1)..v_(L-1), as v_(L-n) = v_n
    v = values if isinstance(values, list) else memoryview(values)  # a memoryview's slices copy nothing
    period = order_from_multiple(lam, lambda d: v[d:] == v[: lam - d] and v[:d] == v[lam - d :])
    return SquarePeriodResult(p, lam, period, (1, lam + period), table)

