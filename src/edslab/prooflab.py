"""Executable checks for the effective lemmas behind the toolkit.

Covers the leading-term expansion of the composite polynomial Q, the
(beta^u - 1) determinant factorization, admissible residue counting,
the quadratic-congruence lift construction, and the row-stochastic
fixed-point collision argument.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ntkernel import (
    Poly,
    echelon,
    hensel_lift_sqrt,
    is_prime,
    kernel_basis,
    legendre_symbol,
)


# ---------------------------------------------------------------------------
# the composite polynomial Q and its leading term


@dataclass
class QExpansion:
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
    q = poly(_SQ_2X1) - alpha**3 * (
        poly(_SQ_XP2) * poly(_SQ_X) ** 3 - poly(_SQ_XM1) * poly(_SQ_XP1) ** 3
    )
    leading = None if q.is_zero() else q.leading
    return QExpansion(q, q.degree, leading)


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
    determinant: int
    product: int
    sign: int | None  # determinant = sign * product mod q; None when both vanish
    consistent: bool


def det_beta_identity(betas: list[int], q: int) -> DetBetaResult:
    """det[(beta_j^u - 1)]_{u,j=1..t} vs +-prod(beta_i - 1) prod_{i<j}(beta_i - beta_j) mod q.

    Both sides are computed independently (elimination over F_q vs direct
    product); repeated or unit betas make both sides vanish.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    t = len(betas)
    if t < 1:
        raise ValueError("need at least one beta")
    betas = [b % q for b in betas]
    rows = [[pow(b, u, q) - 1 for b in betas] for u in range(1, t + 1)]
    det = echelon(rows, lambda x: pow(x, -1, q), q.__rmod__)[2]
    product = 1
    for b in betas:
        product = product * (b - 1) % q
    for i in range(t):
        for j in range(i + 1, t):
            product = product * (betas[i] - betas[j]) % q
    if product == 0:
        return DetBetaResult(det, product, None, det == 0)
    ratio = det * pow(product, -1, q) % q
    sign = 1 if ratio == 1 else -1 if ratio == q - 1 else None
    return DetBetaResult(det, product, sign, sign is not None)


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


def construct_ell(r: int, e: int, n0: int, j: int, c: int) -> int:
    """Solve 2*l*n0 + c*l^2 = j (mod r^e) via a lifted modular square root.

    l = (-n0 + sqrt(n0^2 + j*c)) / c; the discriminant must be a quadratic
    residue mod r (a non-residue raises NonResidueError).  The returned
    l in [0, r^e) is substituted back and verified before returning.
    """
    if legendre_symbol(c, r) == 0:  # which first refuses an r that is not an odd prime
        raise ValueError("c must be coprime to r")
    disc = n0 * n0 + j * c
    s = hensel_lift_sqrt(disc, r, e)
    modulus = r**e
    ell = (-n0 + s) * pow(c, -1, modulus) % modulus
    if (2 * ell * n0 + c * ell * ell - j) % modulus != 0:
        raise RuntimeError(
            f"internal error: candidate {ell} fails the defining congruence mod {r}^{e}"
        )
    return ell


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
    return CollisionReport(n, len(basis), pairs)

