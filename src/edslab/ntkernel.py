"""Exact arithmetic primitives: primes, modular square roots, polynomials.

Everything here is exact big-integer or rational arithmetic; no floating
point.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress


class NonResidueError(ValueError):
    """Raised when a modular square root is requested for a non-residue."""


class IncompleteFactorization(ValueError):
    """Raised when the factoring effort budget runs out: a ValueError, an
    input past what the caller can answer.  Carries the factors found so far
    (``factors``) and the unfactored cofactor (``cofactor``); the message
    sizes them in bits, as past the int-to-str limit no digits can be shown.
    """

    def __init__(self, n: int, factors: dict[int, int], cofactor: int):
        super().__init__(
            f"could not fully factor a {n.bit_length()}-bit integer; stuck at a {cofactor.bit_length()}-bit cofactor"
        )
        self.n = n
        self.factors = factors
        self.cofactor = cofactor


# ---------------------------------------------------------------------------
# primality and factoring


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with these 12 bases is a proof of primality below psi_12, the least strong
# pseudoprime to all of them; from there the first 13 bases of the 26 below (up to 41) prove
# it below psi_13 = 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_DETERMINISTIC_BOUND = 318665857834031151167461
# bases 2, 3, 5, 7 already prove it below this one (Pomerance, Selfridge and
# Wagstaff, Math. Comp. 35, 1980)
_MR_FOUR_BASES_BOUND = 3215031751
_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base % n, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below ~3.3e24, strong probable above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    bases = _SMALL_PRIMES
    if n < _MR_FOUR_BASES_BOUND:
        bases = _SMALL_PRIMES[:4]
    elif n >= _MR_DETERMINISTIC_BOUND:
        bases = _SMALL_PRIMES + _MR_EXTRA_BASES
    return all(_miller_rabin(n, b) for b in bases)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    if k > 2 and k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 1 if k == 2 else 2
    return k


MAX_SIEVE_LIMIT = 10**8  # sieve_primes(10^8) holds 5.8 million prime ints: about 0.3 GB
_SIEVE_SEGMENT = 1 << 16  # the marks iter_primes holds, whatever the limit


def check_sieve_limit(limit: int) -> None:
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"prime bound {limit} exceeds the sieve limit {MAX_SIEVE_LIMIT}")


def iter_primes(limit: int, start: int = 2) -> Iterator[int]:
    """The primes p with start <= p <= limit, ascending, by a segmented sieve
    of Eratosthenes; limit <= MAX_SIEVE_LIMIT, checked at the call.

    It holds the base primes up to sqrt(limit) and one segment of marks, and
    one from start sieves nothing below it.  Each segment is sieved whole
    before its first prime is read, so a scan that stops early still pays for
    up to `_SIEVE_SEGMENT` numbers past the last prime it read.  The first
    100 primes below 20,000 took 120 us, against 60 us with a segment that
    starts at 1,024 and doubles; that segment cost 10-15% more on a full scan
    to 17,989 (Python 3.11, 2-core machine), so the segment stays fixed.
    """
    check_sieve_limit(limit)
    return _sieve_segments(max(start, 2), limit)


def _sieve_segments(start: int, limit: int) -> Iterator[int]:
    base = list(iter_primes(math.isqrt(limit))) if limit >= 4 else []
    for lo in range(start, limit + 1, _SIEVE_SEGMENT):
        mark = bytearray([1]) * (min(lo + _SIEVE_SEGMENT, limit + 1) - lo)
        for p in base:
            if p * p >= lo + len(mark):
                break
            start = max(p * p, -(-lo // p) * p) - lo
            mark[start::p] = bytes(len(range(start, len(mark), p)))
        yield from compress(range(lo, lo + len(mark)), mark)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, as a list; limit <= MAX_SIEVE_LIMIT."""
    return list(iter_primes(limit))


def _brent_rho(n: int, c: int, max_iters: int) -> int:
    """One Brent-cycle Pollard rho attempt on an odd composite n; returns a proper factor or 1."""
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = y
    count = 0
    while g == 1 and count < max_iters:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            count += min(m, r - k + m)
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else 1


_TRIAL_PRIMES = sieve_primes(10000)


def factorize(n: int, *, rho_iters: int = 2_000_000) -> dict[int, int]:
    """Prime factorization of |n| by trial division and Brent's rho.

    Raises IncompleteFactorization when the effort budget is exhausted,
    carrying the partial result.
    """
    rest = n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > rest:
            break
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()  # > 1: rest > 1, and d and m // d below are proper factors
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        for c in range(1, 40):  # m is odd and composite: trial division took every prime below 10^4
            d = _brent_rho(m, c, rho_iters)
            if d > 1:
                break
        if d == 1:
            raise IncompleteFactorization(n, factors, m)
        stack.append(d)
        stack.append(m // d)
    return factors


def order_from_multiple(multiple: int, is_identity) -> int:
    """Order of a group element, given a positive multiple of it, by stripping primes.

    `is_identity(k)` says whether the element's k-th power is the identity;
    it is called only on divisors of `multiple`.
    """
    order = multiple
    for ell in factorize(multiple):
        while order % ell == 0 and is_identity(order // ell):
            order //= ell
    return order


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in (Z/p)^*, p prime, by stripping the primes of p - 1."""
    if a % p == 0:
        raise ValueError(f"{a} is not a unit modulo {p}")
    return order_from_multiple(p - 1, lambda k: pow(a, k, p) == 1)


# ---------------------------------------------------------------------------
# modular square roots and their Hensel lift


def legendre_symbol(a: int, r: int) -> int:
    """Legendre symbol (a/r) in {-1, 0, +1} for an odd prime r."""
    if r <= 2 or not is_prime(r):
        raise ValueError(f"modulus {r} is not an odd prime")
    a %= r
    if a == 0:
        return 0
    ls = pow(a, (r - 1) // 2, r)
    return -1 if ls == r - 1 else 1


def sqrt_mod_prime(a: int, r: int) -> int:
    """Canonical square root of a mod an odd prime r.

    Deterministic Tonelli-Shanks (smallest non-residue as the auxiliary
    element); of the two roots the representative in [0, r/2] is returned.
    """
    ls = legendre_symbol(a, r)
    if ls == -1:
        raise NonResidueError(f"{a} has no square root modulo {r}")
    a %= r
    if ls == 0:
        return 0
    # Tonelli-Shanks: write r-1 = q * 2^e with q odd.
    q, e = r - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (r - 1) // 2, r) != r - 1:  # r is known prime here
        z += 1
    c = pow(z, q, r)
    s = pow(a, (q + 1) // 2, r)
    t = pow(a, q, r)
    m = e
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % r
            i += 1
        b = pow(c, 1 << (m - i - 1), r)
        s = s * b % r
        c = b * b % r
        t = t * c % r
        m = i
    return min(s, r - s)


def hensel_lift_sqrt(a: int, r: int, e: int) -> int:
    """Square root of a modulo r**e lifted from the canonical root mod r.

    Requires r odd prime and, for e > 1, r not dividing a (the unit case;
    each lift step is then unique given the mod-r root).
    """
    if e < 1:
        raise ValueError("exponent must be >= 1")
    s = sqrt_mod_prime(a, r)
    if e == 1:
        return s
    if a % r == 0:
        raise ValueError(f"{r} divides {a}: lifting needs a unit")
    mod = r
    for _ in range(e - 1):
        mod *= r
        s = (s - (s * s - a) * pow(2 * s, -1, mod)) % mod
    return s


# ---------------------------------------------------------------------------
# exact linear algebra (small systems)


def echelon(rows: list[list], inverse=lambda x: 1 / x, normal=lambda x: x) -> tuple[list[list], list[int], object]:
    """Forward (Gaussian) elimination over a field: (echelon rows, pivot
    columns, determinant), the determinant None unless the matrix is square.

    The field is given by its pivot inverse and entry normalization: by
    default Q, `1 / x` and the identity on Fraction entries; F_q is
    `lambda x: pow(x, -1, q)` and `q.__rmod__` on int entries.  An update
    x - f*y below the pivot row is not normalized; an entry is normalized
    where it is tested, where its row becomes the pivot row, and as it is
    returned.  Over F_q, with f and y below q, an update moves it by less
    than q^2, so no entry passes (len(rows) + 1) * q^2.  The determinant is
    the product of the pivots, negated per row swap, and 0 once a column has
    no pivot.
    """
    mat = [list(map(normal, row)) for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if normal(mat[i][c])), None)
        if pivot is None:
            det = 0
            continue
        if pivot != r:
            mat[r], mat[pivot] = mat[pivot], mat[r]
            det = -det
        head = mat[r] = list(map(normal, mat[r]))
        det = normal(det * head[c])
        inv = inverse(head[c])
        tail = head[c:]
        for row in mat[r + 1 :]:
            f = normal(row[c] * inv)
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], tail)]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return [list(map(normal, row)) for row in mat], pivots, det if len(mat) == ncols else None


def kernel_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a matrix over Q: for each free column, the
    solution with a 1 there and 0 at the other free columns, by back-substitution."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat, pivots, _ = echelon(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in reversed(list(zip(mat, pivots))):
            vec[pc] = -sum(x * v for x, v in zip(row[pc + 1 :], vec[pc + 1 :])) / row[pc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# polynomials over Q


@dataclass(init=False, eq=True)
class Poly:
    """Dense polynomial over Q, coefficients ascending from the constant term.

    >>> Poly(1, 0, 1)          # 1 + x^2
    Poly(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1))
    >>> Poly(1, 2).degree
    1
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, *coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(*[self[i] + other[i] for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(*[-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(*[c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(*out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result, base = Poly(1), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        acc = Fraction(0) if not isinstance(x, Poly) else Poly()
        for c in reversed(self.coeffs):
            acc = acc * x + (Poly(c) if isinstance(x, Poly) else c)
        return acc

    def __repr__(self):
        return f"Poly({', '.join(repr(c) for c in self.coeffs)})"


def cyclotomic_orders(bound: int) -> list[int]:
    """Every m with phi(m) <= bound, ascending.  As phi(l^e) = l^(e-1)*(l - 1) and phi
    is multiplicative, each prime l of such an m has l <= bound + 1, and m = m'*l^e,
    l its largest prime, has phi(m') <= bound; so extending each order found so far by
    the powers of each prime l <= bound + 1, ascending, finds every m once."""
    found = [(1, 1)] if bound >= 1 else []  # (m, phi(m))
    for ell in iter_primes(bound + 1):
        for m, phi in found[:]:
            power, phi = ell, phi * (ell - 1)
            while phi <= bound:
                found.append((m * power, phi))
                power, phi = power * ell, phi * ell
    return sorted(m for m, _ in found)


def cyclotomic_factor_orders(f: list[int], bound: int):
    """Yield, ascending, each m with phi(m) <= bound and Phi_m | f, for f = [f_0, f_1, ...] over Z.

    No Phi_m is formed.  Fold f modulo x^m - 1 to h.  Times x^(m/l) - 1 for
    each prime l | m, h vanishes at every non-primitive m-th root of unity,
    whose order divides some m/l, and at a primitive one iff f does; as
    x^m - 1 is squarefree, the product is 0 (mod x^m - 1) iff Phi_m divides f.
    """
    if not any(f):
        raise ValueError("f must be non-zero")
    for m in cyclotomic_orders(min(bound, len(f) - 1)):
        h = [0] * m
        for i, c in enumerate(f):
            h[i % m] += c
        for d in (m // ell for ell in factorize(m)):
            h = [h[i - d] - h[i] for i in range(m)]  # h * (x^d - 1), cyclically
        if not any(h):
            yield m

