"""Elliptic divisibility sequences: geometric and bilinear-recurrence generation,
growth, primitive divisors, and periods modulo p.

A geometric sequence stores the positive denominators z_n of nP.  Reductions
modulo p are computed on the canonical signed companion sequence w_n obtained
from the normalized division-polynomial seed values; z_n = z_1*|w_n| exactly
when gcd(2y, 3x^2 + a*z^4) = 1 (see `require_exact_companion`).  At a prime
not dividing z_1 the factor z_1 is a unit, and the sign ambiguity is
irrelevant to every question asked here (zeros, divisibility, periods up to
sign).  Periods of geometric and Ward-seeded streams come from Ward's symmetry
(`ward_period`) on a few blocks of w_n, each read in O(log p) by `ladder_block`;
the same ladder over Z gives one exact z_n (`geometric_term`) for the cache check.

The division-value recurrence itself (the seeds, `ward_terms`, which steps it
over Z or mod p, and the ladder, which doubles it) lives in `elliptic`, which
forms n*P over Q and tests torsion from it too; this module builds the
sequences on it and steps it nowhere itself.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from . import _span
from .elliptic import (
    CurveFp,
    CurveQ,
    PointQ,
    _companion_gcd,
    _last_doubling,
    _z_from_w,
    count_points,
    division_poly_seeds,
    hasse_interval,
    is_torsion,
    ladder_block,
    point_order_fp,
    reduce_point,
    ward_terms,
)
from .ntkernel import IncompleteFactorization, factorize, is_prime, multiplicative_order


@dataclass(frozen=True)
class WardSeed:
    """Four initial integer values w1..w4 with w1*w2*w3 != 0 and w2 | w4."""

    w1: int
    w2: int
    w3: int
    w4: int

    def __post_init__(self):
        if self.w1 * self.w2 * self.w3 == 0:
            raise ValueError("w1, w2, w3 must be non-zero")
        if self.w4 % self.w2 != 0:
            raise ValueError("w2 must divide w4")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.w1, self.w2, self.w3, self.w4)


@dataclass
class EdsSequence:
    """A generated prefix of an elliptic divisibility sequence (1-based)."""

    source: str  # "geometric" | "ward"
    terms: list[int]
    curve: CurveQ | None = None
    point: PointQ | None = None
    seed: WardSeed | None = None
    degenerate_at: int | None = None  # first index with a zero term, if any

    def term(self, n: int) -> int:
        if not 1 <= n <= len(self.terms):
            raise IndexError(f"term {n} not generated (have 1..{len(self.terms)})")
        return self.terms[n - 1]

    def __len__(self) -> int:
        return len(self.terms)


def require_exact_companion(curve: CurveQ, point: PointQ) -> None:
    """Raise ValueError unless gcd(2y, 3x^2 + a*z^4) = 1, naming the bad primes.

    This gcd is 1 exactly when z_n = z_1*|w_n| for every n, i.e. when the
    point is non-singular modulo every prime (Ayad, Manuscripta Math. 76,
    1992).  Otherwise z_1*|w_n| / z_n is a growing product of the primes
    dividing it, and residues and periods of w_n modulo p are not those of
    z_n.
    """
    g = _companion_gcd(curve, point)
    if g != 1:
        try:
            primes = sorted(factorize(g))
        except IncompleteFactorization as exc:
            primes = [*sorted(exc.factors), exc.cofactor]
        raise ValueError(
            f"gcd(2y, 3x^2 + a*z^4) = {g}: the point is singular modulo {primes}, "
            "so z_n != z_1*|w_n| and the modular sequence model does not apply"
        )


def generate_geometric(curve: CurveQ, point: PointQ, n_terms: int) -> EdsSequence:
    """z_1..z_N, each positive, from the division-polynomial recurrence.

    The exact integers w_n of `ward_terms` on `division_poly_seeds` give
    each z_n by `_z_from_w`.  No point is added: the chord-tangent law is
    kept only in the tests, as their independent oracle.  Under EDSLAB_TRACE=1
    each call writes one span with its `path` (`ayad` or `gcd`) and `terms`.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    if not curve.contains(point):
        raise ValueError("point is not on the curve")
    coprime = _companion_gcd(curve, point) == 1
    with _span("eds.generate_geometric", path="ayad" if coprime else "gcd", terms=n_terms):
        torsion, order = is_torsion(point, curve)
        if torsion:
            raise ValueError(f"point is torsion (order {order}); the sequence degenerates")
        # the coprime path reads no w_(n+1): its last term is never generated
        w = [*ward_terms(division_poly_seeds(curve, point), None, n_terms + (not coprime)), None]
        terms = [_z_from_w(point, coprime, n, w[n - 1], w[n], w[n + 1]) for n in range(1, n_terms + 1)]
    return EdsSequence("geometric", terms, curve=curve, point=point)


def geometric_term(curve: CurveQ, point: PointQ, n: int) -> int:
    """z_n alone, from w_(n-1), w_n, w_(n+1) of `_last_doubling`.  Under
    EDSLAB_TRACE=1 each call writes one span with `n` and the ladder's `steps`,
    counted as `ward_period` counts them."""
    with _span("eds.geometric_term", n=n, steps=max(n.bit_length(), 1)):
        w = _last_doubling(division_poly_seeds(curve, point), n, -1, 1)
        return _z_from_w(point, _companion_gcd(curve, point) == 1, n, *w)


def generate_ward(seed: WardSeed, n_terms: int) -> EdsSequence:
    """w_1..w_N from the four seed values by `ward_terms` over Z, each division exact."""
    w = ward_terms(seed.as_tuple(), None, n_terms)
    degenerate_at = next((i for i in range(1, n_terms + 1) if w[i] == 0), None)
    return EdsSequence("ward", w[1:], seed=seed, degenerate_at=degenerate_at)


def height_ratio(n: int, z_n: int) -> float:
    """log(z_n)/n^2, whose limit is the canonical height of the point; math.log
    takes an int of any size, and z_n >= 1."""
    return math.log(z_n) / n**2


# ---------------------------------------------------------------------------
# reductions modulo p


def stream_mod_p(seeds: tuple[int, int, int, int], p: int, n_terms: int) -> list[int]:
    """w_1..w_(n_terms) modulo p (index 0 unused) of `ward_terms`; needs p coprime to w1*w2."""
    return ward_terms(seeds, p, n_terms)


def _period_horizon(rank: int, p: int) -> int:
    """End of the window (1, end) that `eds period` and certificates state: twice
    the largest period rank*(p-1), and more; the verifier bounds a stated window by it."""
    return 2 * rank * (p - 1) + 2 * rank + 16


def ward_period(seeds: tuple[int, int, int, int], p: int, rank: int) -> int | None:
    """Exact minimal period of the stream w_n mod p, from the `ladder_block` at r = `rank`.

    None unless w_r = 0 and w_{r/l} != 0 for each prime l | r, so that r is
    the rank of apparition and the zeros are its multiples (p does not
    divide w_2), and Ward's symmetry w_{r+n} = w_n * a^n * b holds for the
    block's n = -3..4, a and b read off w_{r+1} and w_{r+2} (M. Ward, Amer.
    J. Math. 70, 1948).  A period maps the zero set onto itself, so it is
    some k*r, and k*r is one exactly when a^k = 1 and b^(k^2) = 1: k a
    multiple of ord(a) and of l^ceil(e/2) for every l^e || ord(b).  The blocks
    at r and each r/l are `ladder_block`s, the one at 0 the seeds: 1 + omega(r)
    ladders, not an O(r*p) window of the stream.  None too when w_{r+1} or
    w_{r+2} vanishes, as it can when p | w_3: r is then no proper rank.  Under
    EDSLAB_TRACE=1 each call writes one span: `rank`, `ladders` (those run),
    `steps` (max(n.bit_length(), 1) for the ladder to n, summed) and `period`.
    """
    with _span("eds.ward_period", rank=rank, ladders=1, steps=max(rank.bit_length(), 1), period=None) as record:
        block = ladder_block(seeds, p, rank)
        w = [s % p for s in (-seeds[2], -seeds[1], -seeds[0], 0, *seeds)]  # the block at 0: w_n for n = -3..4
        if block[3] != 0 or 0 in block[4:6]:
            return None
        for ell in factorize(rank):
            record["ladders"] += 1
            record["steps"] += max((rank // ell).bit_length(), 1)
            if ladder_block(seeds, p, rank // ell)[3] == 0:
                return None
        a = block[5] * w[4] * pow(w[5] * block[4], -1, p) % p
        b = block[4] * pow(w[4] * a, -1, p) % p
        if any(block[n + 3] != w[n + 3] * pow(a, n, p) * b % p for n in range(-3, 5)):
            return None
        t = multiplicative_order(a, p)
        for ell, e in factorize(multiplicative_order(b, p)).items():
            t = math.lcm(t, ell ** ((e + 1) // 2))
        record["period"] = rank * t
    return record["period"]


@dataclass
class EdsPeriodResult:
    p: int
    period: int | None  # None when `ward_period` does not confirm one
    rank: int | None  # rank of apparition (first zero index)
    window: tuple[int, int]
    n_points: int | None = None
    trace: int | None = None
    period_bound: int | None = None  # 2*(p-1)*#E(F_p) for geometric sources
    zeros_consistent: bool | None = None

    @property
    def status(self) -> str:
        return "unconfirmed" if self.period is None else "confirmed"

    @property
    def confirmed(self) -> bool:
        return self.period is not None

    @property
    def divides_bound(self) -> bool | None:
        if self.period is None or self.period_bound is None:
            return None
        return self.period_bound % self.period == 0


def eds_period_mod_p(seq: EdsSequence, p: int) -> EdsPeriodResult:
    """Exact minimal period of the sequence modulo p, from `ward_period`.

    The period is that of the canonical signed stream w_n; z_n = z_1*|w_n|
    agrees with it up to sign only when gcd(2y, 3x^2 + a*z^4) = 1.  A
    geometric source's rank is the order of the reduced point, and its period
    divides 2*(p-1)*#E(F_p).  A Ward seed's rank is the first zero of
    `stream_mod_p` within p + 1 + isqrt(4p) terms: for p not dividing
    w1*w2*w3 the sequence mod p is that of a point on a cubic over F_p (Ward
    1948), whose order is at most the top of the Hasse interval.  With no
    such zero, or with a rank `ward_period` refuses, the status is
    "unconfirmed" and no period is given.
    """
    if seq.source == "geometric":
        curve, point = seq.curve, seq.point
        cfp = CurveFp.from_curve(curve, p)  # refuses a p that is not an odd prime
        if curve.bad_prime_product(point) % p == 0:
            raise ValueError(f"need p coprime to the discriminant, z1 and 2*y1 (p={p})")
        n_points, trace = count_points(cfp)
        rank = point_order_fp(reduce_point(point, curve, p), cfp, n_points)
        seeds = division_poly_seeds(curve, point)
        bound = 2 * (p - 1) * n_points
    else:
        if p == 2 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        n_points = trace = bound = None
        seeds = seq.seed.as_tuple()
        top = hasse_interval(p)[1]
        stream = stream_mod_p(seeds, p, top)
        rank = next((n for n in range(1, top + 1) if stream[n] == 0), None)
        if rank is None:
            return EdsPeriodResult(p, None, None, (1, top))
    period = ward_period(seeds, p, rank)
    zeros_consistent = period is not None if seq.source == "geometric" else None
    window = (1, _period_horizon(rank, p))
    return EdsPeriodResult(p, period, rank, window, n_points, trace, bound, zeros_consistent)


# ---------------------------------------------------------------------------
# primitive (Zsigmondy) divisors

PRIMITIVE_RHO_ITERS = 200_000  # Brent-rho steps per factoring attempt on a primitive part


@dataclass
class PrimitiveReport:
    n: int
    primitive_part: int  # product of the primitive prime powers of |z_n|
    primes: list[int]
    complete: bool  # False when factoring the primitive part timed out


def primitive_parts(seq: EdsSequence) -> tuple[list[int], int]:
    """The primitive part of each |z_n|, the product of its prime powers that divide
    no earlier term (0 for a zero term), and the number of gcds taken.

    The z_n of a point form a strong divisibility sequence, gcd(z_m, z_n) =
    z_gcd(m,n) (the points with v_l(x) < 0 form the subgroup E_1(Q_l) of the
    integral model), so a prime of z_n divides an earlier term iff it divides
    z_(n/l) for a prime l | n.  The part is isolated exactly with gcds against
    those terms, so every part is known before any is factored.  Every prime
    divides a zero term, as of a degenerate Ward sequence: each later part is 1.
    """
    parts, gcds = [], 0
    zero_seen = False
    for n in range(1, len(seq) + 1):
        t = abs(seq.term(n))
        if t == 0:
            parts.append(0)
            zero_seen = True
            continue
        prim = 1 if zero_seen else t
        for ell in factorize(n):
            g = math.gcd(prim, seq.term(n // ell))
            gcds += 1
            while g > 1:
                prim //= g
                g = math.gcd(prim, g)
                gcds += 1
        parts.append(prim)
    return parts, gcds


def primitive_divisor_scan(parts: list[int], gcds: int) -> list[PrimitiveReport]:
    """Per-index primitive primes: each of the parts and the gcd count that
    `primitive_parts` returns, every part above 1 factored under the effort cap,
    so only the listed primes can be incomplete.  Under EDSLAB_TRACE=1 each call
    writes one span with `terms`, `gcds` (the gcds taken), `factored` (the parts
    handed to `factorize`) and `incomplete`."""
    reports = []
    factored = incomplete = 0
    with _span("eds.primitive_divisor_scan", terms=len(parts)) as record:
        for n, prim in enumerate(parts, start=1):
            primes: list[int] = []
            complete = True
            if prim > 1:
                factored += 1
                try:
                    primes = sorted(factorize(prim, rho_iters=PRIMITIVE_RHO_ITERS))
                except IncompleteFactorization as exc:
                    primes = sorted(exc.factors)
                    complete = False
                    incomplete += 1
            reports.append(PrimitiveReport(n, prim, primes, complete))
        record.update(gcds=gcds, factored=factored, incomplete=incomplete)
    return reports


# ---------------------------------------------------------------------------
# sequence cache


def cache_path(cache_dir: str, curve: CurveQ, point: PointQ) -> str:
    # in the cache functions only, from CPython's built-in module: hashlib
    # would load OpenSSL, whatever hash it is asked for
    from _blake2 import blake2b

    payload = f"curve {curve.a} {curve.b} point {point.x} {point.y} {point.z}"
    return os.path.join(cache_dir, blake2b(payload.encode(), digest_size=32).hexdigest() + ".eds")


CACHE_HEADER = "edslab-eds 4\n"


def save_sequence(cache_dir: str, seq: EdsSequence) -> str:
    """Write the terms in hex and a BLAKE2b-256 of the file above it,
    replacing the file atomically; a write that fails leaves the previous
    file as it was.

    Hex, unlike decimal, converts in time linear in the size of a term and
    has no length limit.  A term's hex is that of its bytes, less the one 0
    their top byte can start with: the text of f"{z:x}", which CPython 3.11
    formats about 3 times more slowly.  Under EDSLAB_TRACE=1 each call
    writes one span with `terms` and the `bytes` of the file it wrote.
    """
    import tempfile

    from _blake2 import blake2b

    if seq.source != "geometric":
        raise ValueError("only geometric sequences are cached")
    with _span("eds.save_sequence", terms=len(seq.terms)) as record:
        os.makedirs(cache_dir, exist_ok=True)
        path = cache_path(cache_dir, seq.curve, seq.point)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".eds-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                digest = blake2b(digest_size=32)
                hexes = (z.to_bytes((z.bit_length() + 7) // 8, "big").hex().lstrip("0") or "0" for z in seq.terms)
                lines = (f"{n} {digits}\n" for n, digits in enumerate(hexes, start=1))
                for line in itertools.chain([CACHE_HEADER], lines):
                    digest.update(line.encode())
                    fh.write(line)
                fh.write(f"blake2b {digest.hexdigest()}\n")
                record["bytes"] = fh.tell()
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return path


def load_sequence(cache_dir: str, curve: CurveQ, point: PointQ, n_terms: int) -> EdsSequence | None:
    """Load a cached prefix, or None on a miss.

    A file with fewer than n_terms + 2 lines is a miss before it is hashed
    or split.  So is a file without the current header (formats 2 and 3
    too), without a matching BLAKE2b-256 line, or with other than the lines
    1..M.  The hash only finds corruption; it does not tie the file to its
    (curve, point), so the first and last requested terms must also equal
    the exact z_1 and z_n of `geometric_term`, O(log n) ladder steps over Z.
    The caller regenerates.  Neither check finds a deliberate edit: a term
    other than z_1 and z_n changed, with the hash line recomputed, loads, so
    the cache is as trustworthy as whoever can write its directory.  Checking
    every term exactly would cost the products that generating them costs.
    Under EDSLAB_TRACE=1 each call writes one span that tells a hit from a
    miss and names the miss.
    """
    with _span("eds.load_sequence", n_terms=n_terms) as record:
        seq, miss = _read_cached(cache_path(cache_dir, curve, point), curve, point, n_terms)
        record.update(hit=seq is not None, miss=miss)
    return seq


def _read_cached(path: str, curve: CurveQ, point: PointQ, n_terms: int) -> tuple[EdsSequence | None, str | None]:
    """`load_sequence`'s answer, with the reason for a miss: absent, short,
    header, hash, malformed or terms."""
    from _blake2 import blake2b

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None, "absent"
    if data.count(b"\n") < n_terms + 2:  # the header, the terms 1..n_terms and the hash line
        return None, "short"
    if not data.startswith(CACHE_HEADER.encode()):
        return None, "header"
    end = data.rfind(b"\n", 0, -1) + 1  # where the hash line starts
    digest = blake2b(memoryview(data)[:end], digest_size=32).hexdigest()
    if data[end:] != f"blake2b {digest}\n".encode():
        return None, "hash"
    body = data[len(CACHE_HEADER) : end]
    lines = [line.split(b" ") for line in body.splitlines()]  # each "n z", z in lowercase hex
    if body.translate(None, b"0123456789abcdef \n") or any(
        len(line) != 2 or line[0] != b"%d" % n or not line[1] for n, line in enumerate(lines, start=1)
    ):
        return None, "malformed"
    terms = [int(z_str, 16) for _, z_str in lines[:n_terms]]  # only the terms asked for are converted
    try:
        if any(geometric_term(curve, point, n) != terms[n - 1] for n in (1, n_terms)):
            return None, "terms"
    except ValueError:  # a point whose sequence the ladder refuses
        return None, "terms"
    return EdsSequence("geometric", terms, curve=curve, point=point), None
