"""Executable checks for the effective lemmas behind the toolkit.

Covers the leading-term expansion of the composite polynomial Q, the
(beta^u - 1) determinant factorization, admissible residue counting,
the quadratic-congruence lift construction, the row-stochastic
fixed-point collision argument, and multiplicative independence of
rationals.  Everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ntkernel import (
    IncompleteFactorization,
    Poly,
    Residue,
    det_fraction,
    factorize,
    hensel_lift_sqrt,
    invmod,
    is_prime,
    kernel_basis,
    legendre_symbol,
)


# ---------------------------------------------------------------------------
# the composite polynomial Q and its leading term


@dataclass
class QExpansion:
    source: Poly
    alpha: Fraction
    expanded: Poly
    degree: int
    leading: Fraction | None  # None for the zero polynomial


_SQ_2X1 = Poly(1, 4, 4)  # (2X+1)^2
_SQ_XP2 = Poly(4, 4, 1)  # (X+2)^2
_SQ_X = Poly(0, 0, 1)  # X^2
_SQ_XM1 = Poly(1, -2, 1)  # (X-1)^2
_SQ_XP1 = Poly(1, 2, 1)  # (X+1)^2


def expand_q(poly: Poly, alpha) -> QExpansion:
    """Exact expansion of Q(X) = P((2X+1)^2) - a^3 (P((X+2)^2) P(X^2)^3 - P((X-1)^2) P((X+1)^2)^3).

    For constant P the cubic terms cancel and Q is that constant; for
    deg P = d > 0 the top 8d monomials collapse and
    deg Q = 8d - 3 with leading coefficient -4 d a0^4 alpha^3 (a0 the
    leading coefficient of P).
    """
    if poly.is_zero():
        raise ValueError("P must be non-zero")
    alpha = Fraction(alpha)
    q = poly.compose(_SQ_2X1) - alpha**3 * (
        poly.compose(_SQ_XP2) * poly.compose(_SQ_X) ** 3
        - poly.compose(_SQ_XM1) * poly.compose(_SQ_XP1) ** 3
    )
    leading = None if q.is_zero() else q.leading
    return QExpansion(poly, alpha, q, q.degree, leading)


def q_lemma_prediction(poly: Poly, alpha) -> tuple[int, Fraction]:
    """(degree, leading coefficient) the expansion lemma predicts."""
    d = poly.degree
    alpha = Fraction(alpha)
    if d == 0:
        return 0, poly.leading
    return 8 * d - 3, -4 * d * poly.leading**4 * alpha**3


# ---------------------------------------------------------------------------
# determinant factorization


@dataclass
class DetBetaResult:
    betas: tuple[int, ...]
    modulus: int
    determinant: int
    product: int
    sign: int | None  # determinant = sign * product mod q; None when both vanish
    consistent: bool


def det_beta_identity(betas: list[int], q: int) -> DetBetaResult:
    """det[(beta_j^u - 1)]_{u,j=1..t} vs +-prod(beta_i - 1) prod_{i<j}(beta_i - beta_j) mod q.

    Both sides are computed independently (exact integer determinant vs
    direct product); repeated or unit betas make both sides vanish.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    t = len(betas)
    if t < 1:
        raise ValueError("need at least one beta")
    betas = [b % q for b in betas]
    mat = [[Fraction(pow(b, u, q) - 1) for b in betas] for u in range(1, t + 1)]
    det = int(det_fraction(mat)) % q
    product = 1
    for b in betas:
        product = product * (b - 1) % q
    for i in range(t):
        for j in range(i + 1, t):
            product = product * (betas[i] - betas[j]) % q
    if product == 0:
        return DetBetaResult(tuple(betas), q, det, product, None, det == 0)
    ratio = det * invmod(product, q) % q
    if ratio == 1:
        return DetBetaResult(tuple(betas), q, det, product, 1, True)
    if ratio == q - 1:
        return DetBetaResult(tuple(betas), q, det, product, -1, True)
    return DetBetaResult(tuple(betas), q, det, product, None, False)


# ---------------------------------------------------------------------------
# admissible residue classes


@dataclass
class ResidueCountReport:
    r: int
    t: int
    c: int
    count: int  # I_r
    deviation: int  # |2^t * I_r - r|


def count_admissible_residues(r: int, t: int, c: int = 1) -> ResidueCountReport:
    """I_r = #{n in [0, r) : n^2 + j*c is a non-zero square mod r for j = 1..t}.

    Square-root cancellation makes 2^t I_r track r; the report carries the
    exact deviation |2^t I_r - r|.
    """
    if r == 2 or not is_prime(r):
        raise ValueError("r must be an odd prime")
    if c % r == 0:
        raise ValueError("c must be coprime to r")
    if t < 0:
        raise ValueError("t must be >= 0")
    if r <= t:
        raise ValueError("need r > t")
    if t == 0:
        return ResidueCountReport(r, 0, c, r, 0)
    qr = bytearray(r)
    for i in range(1, (r - 1) // 2 + 1):
        qr[i * i % r] = 1
    count = 0
    for n in range(r):
        v = n * n % r
        if all(qr[(v + j * c) % r] for j in range(1, t + 1)):
            count += 1
    return ResidueCountReport(r, t, c, count, abs(2**t * count - r))


def construct_ell(r: int, e: int, n0: int, j: int, c: int) -> Residue:
    """Solve 2*l*n0 + c*l^2 = j (mod r^e) via a lifted modular square root.

    l = (-n0 + sqrt(n0^2 + j*c)) / c; the discriminant must be a quadratic
    residue mod r (a non-residue raises NonResidueError).  The returned
    value is substituted back and verified before returning.
    """
    if legendre_symbol(c, r) == 0:  # which first refuses an r that is not an odd prime
        raise ValueError("c must be coprime to r")
    disc = n0 * n0 + j * c
    s = hensel_lift_sqrt(disc, r, e)
    modulus = r**e
    ell = (-n0 + s) * invmod(c, modulus) % modulus
    if (2 * ell * n0 + c * ell * ell - j) % modulus != 0:
        raise RuntimeError(
            f"internal error: candidate {ell} fails the defining congruence mod {r}^{e}"
        )
    return Residue(ell, modulus)


# ---------------------------------------------------------------------------
# row-stochastic fixed points


class AdmissibilityError(ValueError):
    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row


@dataclass
class CollisionReport:
    size: int
    eigenspace_dim: int
    basis: list[list[Fraction]]
    colliding_pairs: list[tuple[int, int]]  # coordinates equal on the whole eigenspace

    @property
    def has_collision(self) -> bool:
        return bool(self.colliding_pairs)


def fixed_point_collision(matrix: list[list]) -> CollisionReport:
    """Every eigenvalue-1 eigenvector of an admissible matrix has equal coordinates.

    Admissible: non-negative entries, row sums 1, and each row's support
    either avoids the diagonal or has at least three elements.  The
    eigenspace is the exact rational kernel of A - I; a subspace on which
    every vector has two equal coordinates must lie inside one hyperplane
    x_i = x_j, so the collision pairs are read off the basis.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise AdmissibilityError(i, "matrix must be square")
        if any(x < 0 for x in row):
            raise AdmissibilityError(i, "negative entry")
        if sum(row) != 1:
            raise AdmissibilityError(i, f"row sums to {sum(row)}, not 1")
        support = [j for j, x in enumerate(row) if x != 0]
        if i in support and len(support) < 3:
            raise AdmissibilityError(
                i, "support containing the diagonal needs at least 3 entries"
            )
    shifted = [[a[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    basis = kernel_basis(shifted)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if all(vec[i] == vec[j] for vec in basis)
    ]
    return CollisionReport(n, len(basis), basis, pairs)


# ---------------------------------------------------------------------------
# multiplicative independence


@dataclass
class IndependenceResult:
    status: str  # "ok" | "inconclusive"
    independent: bool | None
    relation: tuple[int, ...] | None  # exponents with prod v_i^e_i = 1

    @property
    def dependent(self) -> bool:
        return self.independent is False


def multiplicative_independence_check(values: list) -> IndependenceResult:
    """Decide whether non-zero rationals satisfy a non-trivial power relation.

    Exponent vectors over the primes of all numerators and denominators are
    collected and an exact integer kernel is computed; any non-zero kernel
    vector yields a relation (doubled when needed to absorb signs).
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise ValueError("need at least one value")
    if any(v == 0 for v in vals):
        raise ValueError("values must be non-zero")
    exponents: list[dict[int, int]] = []
    try:
        for v in vals:
            vec: dict[int, int] = {}
            for p, e in factorize(v.numerator).items():
                vec[p] = vec.get(p, 0) + e
            for p, e in factorize(v.denominator).items():
                vec[p] = vec.get(p, 0) - e
            exponents.append(vec)
    except IncompleteFactorization:
        return IndependenceResult("inconclusive", None, None)
    primes = sorted({p for vec in exponents for p in vec})
    # rows indexed by prime, columns by value: kernel vectors are relations
    rows = [[Fraction(vec.get(p, 0)) for vec in exponents] for p in primes]
    if not rows:
        rows = [[Fraction(0)] * len(vals)]  # all values are +-1
    basis = kernel_basis(rows)
    if not basis:
        return IndependenceResult("ok", True, None)
    raw = basis[0]
    scale = math.lcm(*(f.denominator for f in raw))
    ints = [int(f * scale) for f in raw]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    sign = 1
    for v, e in zip(vals, ints):
        if v < 0 and e % 2:
            sign = -sign
    if sign < 0:
        ints = [2 * x for x in ints]
    check = Fraction(1)
    for v, e in zip(vals, ints):
        check *= v**e
    assert check == 1, "kernel vector must verify as an exact relation"
    return IndependenceResult("ok", False, tuple(ints))
