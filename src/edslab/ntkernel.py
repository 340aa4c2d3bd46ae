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


class IncompleteFactorization(RuntimeError):
    """Raised when the factoring effort budget runs out.

    Carries the factors found so far (``factors``) and the remaining
    unfactored cofactor (``cofactor``).
    """

    def __init__(self, n: int, factors: dict[int, int], cofactor: int):
        super().__init__(f"could not fully factor {n}; stuck at cofactor {cofactor}")
        self.n = n
        self.factors = factors
        self.cofactor = cofactor


# ---------------------------------------------------------------------------
# primality and factoring


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with these bases is a proof of primality below this bound.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
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

    It holds the base primes up to sqrt(limit) and one segment of marks, so a
    scan that stops early costs what it read, and one from start sieves
    nothing below it.
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
    """One Brent-cycle Pollard rho attempt; returns a factor or 1."""
    if n % 2 == 0:
        return 2
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
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = 1
        for c in range(1, 40):
            d = _brent_rho(m, c, rho_iters)
            if 1 < d < m:
                break
        if d == 1 or d == m:
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


def invmod(a: int, m: int) -> int:
    """Inverse of a modulo m; raises ValueError when gcd(a, m) != 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m}") from None


# ---------------------------------------------------------------------------
# modular square roots, lcm towers


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
    if r % 4 == 3:
        s = pow(a, (r + 1) // 4, r)
        return min(s, r - s)
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
        s = (s - (s * s - a) * invmod(2 * s, mod)) % mod
    return s


def lcm_tower(p: int, k: int) -> int:
    """lcm of p**j - 1 for j = 1..k."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.lcm(*(p**j - 1 for j in range(1, k + 1)))


@dataclass(frozen=True)
class Residue:
    """A value in canonical range [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _coerce(self, other) -> int:
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return other.value
        return int(other)

    def __add__(self, other):
        return Residue(self.value + self._coerce(other), self.modulus)

    def __sub__(self, other):
        return Residue(self.value - self._coerce(other), self.modulus)

    def __mul__(self, other):
        return Residue(self.value * self._coerce(other), self.modulus)

    def __pow__(self, n: int):
        return Residue(pow(self.value, n, self.modulus), self.modulus)

    def inverse(self) -> "Residue":
        return Residue(invmod(self.value, self.modulus), self.modulus)

    def __int__(self) -> int:
        return self.value


# ---------------------------------------------------------------------------
# exact rational linear algebra (small systems)


def rref_fraction(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot columns)."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def kernel_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a matrix over Q."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = rref_fraction(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant over Q by fraction Gaussian elimination."""
    n = len(rows)
    mat = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return det


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

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly(c)
        return acc

    def divmod_exact(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dl = divisor.degree, divisor.leading
        quo = [Fraction(0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            f = rem[i + dn] / dl
            if f:
                quo[i] = f
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= f * c
        return Poly(*quo), Poly(*rem[:dn])

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod_exact(other)[1]

    def __repr__(self):
        return f"Poly({', '.join(repr(c) for c in self.coeffs)})"


def totients(n: int) -> list[int]:
    """phi(0..n) by a totient sieve (phi(0) = 0 stands in)."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime divides p
            for j in range(p, n + 1, p):
                phi[j] -= phi[j] // p
    return phi


def cyclotomic_orders(bound: int) -> list[int]:
    """Every m with phi(m) <= bound, ascending; phi(m) >= sqrt(m/2) keeps m <= 2*bound^2."""
    phi = totients(2 * max(bound, 0) ** 2 + 1)
    return [m for m in range(1, len(phi)) if phi[m] <= bound]


def cyclotomic_factor_orders(f: Poly, bound: int):
    """Yield, ascending, every m with phi(m) <= bound for which Phi_m divides f.

    Exact over Z, and no Phi_m is formed.  g = c*f is integral for c the lcm
    of the denominators.  Fold g modulo x^m - 1 to h, and multiply h, modulo
    x^m - 1, by x^d - 1 for each d | m, d < m.  The product vanishes at every
    non-primitive m-th root of unity, and at a primitive one iff h does.  As
    x^m - 1 is squarefree, the product is 0 iff h, so f, vanishes at the
    primitive m-th roots, that is, iff the irreducible Phi_m divides f.
    """
    if f.is_zero():
        raise ValueError("f must be non-zero")
    scale = math.lcm(*(c.denominator for c in f.coeffs))
    g = [int(c * scale) for c in f.coeffs]
    for m in cyclotomic_orders(min(bound, f.degree)):
        h = [0] * m
        for i, c in enumerate(g):
            h[i % m] += c
        for d in range(1, m):
            if m % d == 0:
                h = [h[i - d] - h[i] for i in range(m)]  # h * (x^d - 1), cyclically
        if not any(h):
            yield m


def cyclotomic_root_of_unity_test(f: Poly, bound: int) -> tuple[bool, int | None]:
    """Does f share a factor with some cyclotomic polynomial Phi_m, phi(m) <= bound?

    Returns (True, m) for the smallest such m, else (False, None).
    """
    m = next(cyclotomic_factor_orders(f, bound), None)
    return m is not None, m
