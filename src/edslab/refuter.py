"""Witness-prime certificates: a prime p at which the period structure of a
square-sampled linear recurrence is provably incompatible with an elliptic
divisibility sequence, packaged so that every claim can be re-derived from
the certificate file alone.

The incompatibility: q divides the order of P modulo p, the zeros of the
divisibility sequence mod p sit exactly on multiples of that order, so every
shift that eventually maps the zero set of (z_n mod p) onto itself is
divisible by q; but the minimal period of (u_{n^2} mod p) is coprime to q.
Eventual equality of the two sequences is therefore impossible, and sample
mismatch indices witness it directly.

The certificate's tz_period is the period of the signed companion w_n mod p,
not of z_n mod p: z_n = z_1*|w_n| repeats it only up to the sign of the
integer w_n, which is not periodic, so z_n mod p need not have a period at
all.  Its zero set does, and the zero set is all the argument uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .eds import (
    WardSeed,
    _period_horizon,
    division_poly_seeds,
    generate_ward,
    require_exact_companion,
    stream_mod_p,
    ward_constants,
    ward_period,
)
from .elliptic import (
    CurveFp,
    CurveQ,
    PointQ,
    count_points,
    count_points_naive,
    hasse_window,
    is_torsion,
    point_order_fp,
    reduce_point,
    scalar_mul,
)
from .lrs import LrsSpec, eval_mod, is_degenerate, square_sampled_period
from .ntkernel import factorize, is_prime, next_prime, sieve_primes

SCHEMA_VERSION = "1"
DEFAULT_A_TARGET = 3
DEFAULT_MISMATCH_LIMIT = 60
DEFAULT_MIN_MISMATCHES = 10
# largest mismatch index the verifier recomputes: the exact z_n it needs has
# about h*n^2 digits (h the canonical height), so work grows with n^2; with
# distinct indices this also caps the number of exact multiples at 240
MAX_MISMATCH_INDEX = 4 * DEFAULT_MISMATCH_LIMIT
# the finder skips a prime whose period window 2r(p-1)+2r+16 exceeds this
DEFAULT_HORIZON_CAP = 6_000_000
# largest witness prime the finder can certify under the default cap: the
# order r is at least 3, and _period_horizon(3, p) = 6p + 16; the verifier
# bounds p by it before its O(p) recount
MAX_WITNESS_P = (DEFAULT_HORIZON_CAP - 16) // 6


# ---------------------------------------------------------------------------
# certificates


@dataclass
class WitnessCertificate:
    curve: CurveQ
    point: PointQ
    spec: LrsSpec
    q: int
    p: int
    trace: int
    n_points: int
    point_order: int
    tz_period: int  # of w_n mod p; z_n mod p agrees with w_n only up to sign
    tz_window: tuple[int, int]
    tu_period: int
    tu_window: tuple[int, int]
    lrs_period: int
    q_divides_tz: bool
    q_divides_tu: bool
    mismatches: list[tuple[int, int, int]]  # (n, z_n mod p, u_{n^2} mod p)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, integers as decimal strings."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "curve": {"a": str(self.curve.a), "b": str(self.curve.b)},
            "point": {"x": str(self.point.x), "y": str(self.point.y), "z": str(self.point.z)},
            "lrs": {
                "order": str(self.spec.order),
                "coeffs": [str(c) for c in self.spec.coeffs],
                "initial": [str(u) for u in self.spec.initial],
            },
            "q": str(self.q),
            "p": str(self.p),
            "trace": str(self.trace),
            "n_points": str(self.n_points),
            "point_order": str(self.point_order),
            "tz_period": str(self.tz_period),
            "tz_window": [str(self.tz_window[0]), str(self.tz_window[1])],
            "tu_period": str(self.tu_period),
            "tu_window": [str(self.tu_window[0]), str(self.tu_window[1])],
            "lrs_period": str(self.lrs_period),
            "q_divides_tz": self.q_divides_tz,
            "q_divides_tu": self.q_divides_tu,
            "mismatches": [
                {"n": str(n), "z_mod": str(z), "u_mod": str(u)} for n, z, u in self.mismatches
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "WitnessCertificate":
        payload = json.loads(text)
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {payload.get('schema_version')!r}")
        curve = CurveQ(int(payload["curve"]["a"]), int(payload["curve"]["b"]))
        point = PointQ(
            int(payload["point"]["x"]), int(payload["point"]["y"]), int(payload["point"]["z"])
        )
        spec = LrsSpec(
            int(payload["lrs"]["order"]),
            tuple(int(c) for c in payload["lrs"]["coeffs"]),
            tuple(int(u) for u in payload["lrs"]["initial"]),
        )
        return cls(
            curve=curve,
            point=point,
            spec=spec,
            q=int(payload["q"]),
            p=int(payload["p"]),
            trace=int(payload["trace"]),
            n_points=int(payload["n_points"]),
            point_order=int(payload["point_order"]),
            tz_period=int(payload["tz_period"]),
            tz_window=(int(payload["tz_window"][0]), int(payload["tz_window"][1])),
            tu_period=int(payload["tu_period"]),
            tu_window=(int(payload["tu_window"][0]), int(payload["tu_window"][1])),
            lrs_period=int(payload["lrs_period"]),
            q_divides_tz=bool(payload["q_divides_tz"]),
            q_divides_tu=bool(payload["q_divides_tu"]),
            mismatches=[
                (int(m["n"]), int(m["z_mod"]), int(m["u_mod"])) for m in payload["mismatches"]
            ],
        )


# ---------------------------------------------------------------------------
# q selection


def validate_q(q: int, spec: LrsSpec, curve: CurveQ, exclusions: tuple[int, ...] = ()) -> None:
    """q must be an odd prime avoiding the last coefficient, the discriminant,
    the exclusion list, and every 2^j - 1 for j up to the order (this keeps q
    coprime to the multiplicative orders available modulo any p = 2 mod q)."""
    if q < 3 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    if q in exclusions:
        raise ValueError(f"q={q} is excluded")
    if spec.coeffs[-1] % q == 0:
        raise ValueError(f"q={q} divides the last recurrence coefficient")
    if curve.disc % q == 0:
        raise ValueError(f"q={q} divides the curve discriminant")
    for j in range(1, spec.order + 1):
        if (2**j - 1) % q == 0:
            raise ValueError(f"q={q} divides 2^{j} - 1")


def choose_q(spec: LrsSpec, curve: CurveQ, exclusions: tuple[int, ...] = ()) -> int:
    """Smallest admissible prime larger than the recurrence order."""
    q = spec.order
    while True:
        q = next_prime(q)
        if q < 3:
            continue
        try:
            validate_q(q, spec, curve, exclusions)
            return q
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# the finder


@dataclass
class FindResult:
    status: str  # "found" | "exhausted"
    certificate: WitnessCertificate | None
    stats: dict[str, int] = field(default_factory=dict)
    p_max: int = 0
    q: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


def _mismatch_residue(z_mod: int, u_mod: int, p: int) -> bool:
    return (z_mod - u_mod) % p != 0 and (z_mod + u_mod) % p != 0


def find_witness(
    curve: CurveQ,
    point: PointQ,
    spec: LrsSpec,
    q: int | None = None,
    *,
    a_target: int = DEFAULT_A_TARGET,
    p_max: int = 1_000_000,
    exclusions: tuple[int, ...] = (),
    horizon_cap: int = DEFAULT_HORIZON_CAP,
    mismatch_limit: int = DEFAULT_MISMATCH_LIMIT,
    min_mismatches: int = DEFAULT_MIN_MISMATCHES,
) -> FindResult:
    """Scan primes in ascending order for a witness and certify the first hit.

    Wanted: p = a_target - 1 (mod q), good reduction, a_p = a_target (mod q),
    and q dividing the order of P modulo p (then q divides #E(F_p) too).  For
    the first such p the minimal periods of both sequences are computed, the
    divisibility sequence's by Ward's symmetry (`ward_period`); a p whose
    period window 2r(p-1)+2r+16 exceeds the horizon cap is counted and
    skipped, never certified.  Identical inputs always produce identical
    output.
    """
    torsion, order = is_torsion(point, curve)
    if torsion:
        raise ValueError(f"point is torsion (order {order})")
    if point.y == 0:
        raise ValueError("a point with y = 0 is 2-torsion")
    if point.x == 0:
        # order divisibility by an odd q is unchanged under doubling
        point = scalar_mul(2, point, curve)
    require_exact_companion(curve, point)
    seeds = division_poly_seeds(curve, point)
    degenerate, witness_order = is_degenerate(spec)
    if degenerate:
        raise ValueError(
            f"spec is degenerate (root-of-unity ratio of order {witness_order}); "
            "apply nondegenerate_reduction first"
        )
    if q is None:
        q = choose_q(spec, curve, exclusions)
    else:
        validate_q(q, spec, curve, exclusions)
    if a_target < 2:
        raise ValueError("the trace target must be at least 2")
    b_target = (a_target - 1) % q
    if b_target == 0:
        raise ValueError("a_target = 1 (mod q) makes the determinant class vanish")

    stats = {
        "scanned": 0,
        "excluded": 0,
        "divides_invariants": 0,
        "residue_class": 0,
        "trace": 0,
        "order": 0,
        "period_unconfirmed": 0,
        "tu_divisible": 0,
        "too_few_mismatches": 0,
        "candidates": 0,
    }
    ck = spec.coeffs[-1]
    exact_prefix: list[int] | None = None

    for p in sieve_primes(p_max):
        stats["scanned"] += 1
        if p == 2 or p == q or p in exclusions:
            stats["excluded"] += 1
            continue
        if (curve.disc * point.z * ck * 2 * point.y) % p == 0:
            stats["divides_invariants"] += 1
            continue
        if p % q != b_target:
            stats["residue_class"] += 1
            continue
        cfp = CurveFp.from_curve(curve, p)
        n_points, trace = count_points(cfp)
        if trace % q != a_target % q:
            stats["trace"] += 1
            continue
        order_p = point_order_fp(reduce_point(point, curve, p), cfp, n_points)
        if order_p % q != 0:
            stats["order"] += 1
            continue
        stats["candidates"] += 1

        horizon = _period_horizon(order_p, p)
        if horizon > horizon_cap:
            stats["period_unconfirmed"] += 1
            continue
        tz = ward_period(seeds, p, order_p)
        sq = square_sampled_period(spec, p)
        if sq.period % q == 0:
            # cannot happen when q passes validate_q; counted, never certified
            stats["tu_divisible"] += 1
            continue
        if exact_prefix is None:
            # z_n = z_1*|w_n|, as require_exact_companion passed
            ward = generate_ward(WardSeed(*seeds), mismatch_limit)
            exact_prefix = [point.z * abs(w) for w in ward.terms]
        mismatches = []
        for n in range(1, mismatch_limit + 1):
            z_mod = exact_prefix[n - 1] % p
            u_mod = eval_mod(spec, n * n, p)
            if _mismatch_residue(z_mod, u_mod, p):
                mismatches.append((n, z_mod, u_mod))
        if len(mismatches) < min_mismatches:
            stats["too_few_mismatches"] += 1
            continue
        cert = WitnessCertificate(
            curve=curve,
            point=point,
            spec=spec,
            q=q,
            p=p,
            trace=trace,
            n_points=n_points,
            point_order=order_p,
            tz_period=tz,
            tz_window=(1, horizon),
            tu_period=sq.period,
            tu_window=sq.window,
            lrs_period=sq.lrs_period,
            q_divides_tz=tz % q == 0,
            q_divides_tu=False,
            mismatches=mismatches[: max(min_mismatches, 12)],
        )
        return FindResult("found", cert, stats, p_max, q)
    return FindResult("exhausted", None, stats, p_max, q)


# ---------------------------------------------------------------------------
# the verifier


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyResult:
    ok: bool
    checks: list[CheckResult]

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]


def _check_ward_period(w: list[int], r: int, t: int, p: int) -> tuple[bool, bool, str]:
    """(r*t is a period of w_n mod p, it is the least one, detail), from w_1..w_{2r+2}.

    r >= 3 is the order of P mod p: good reduction rules out p | z1 and p | 2*y1.
    """
    if not all((w[n] == 0) == (n % r == 0) for n in range(1, 2 * r + 3)):
        return False, False, f"the zeros of w_1..w_{2 * r + 2} are not the multiples of {r}"
    a, b = ward_constants(w, r, p)
    if any(w[r + n] != w[n] * pow(a, n, p) * b % p for n in range(1, r + 3)):
        return False, False, "Ward's symmetry w_(r+n) = w_n * a^n * b fails for some n <= r + 2"

    def is_period(k: int) -> bool:
        return pow(a, k, p) == 1 and pow(b, k * k, p) == 1

    if not is_period(t):
        return False, False, f"a^t = b^(t^2) = 1 fails at t = tz/r = {t}"
    return True, not any(is_period(t // ell) for ell in factorize(t)), ""


def verify_certificate(cert: WitnessCertificate) -> VerifyResult:
    """Re-derive every certified fact from scratch; fail naming the field.

    Uses only the arithmetic primitives, not any state cached by the finder.
    #E(F_p) is recounted by `count_points_naive`, an algorithm independent
    of the Shanks-Mestre count that found the witness.  tz is re-derived in
    O(r + log p): the zeros of w_1..w_{2r+2} must sit exactly on the
    multiples of r, Ward's symmetry w_{r+n} = w_n * a^n * b must hold for
    n = 1..r+2, t = tz/r must satisfy a^t = 1 and b^(t^2) = 1, and t/l must
    fail that for every prime l | t (the valid t are the multiples of the
    least one).  p, the stated window and the mismatch indices are bounded before
    any count, stream or exact multiple is computed, so an edited
    certificate cannot make the verifier run away.
    """
    checks: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(ok), detail))
        return ok

    check("q_prime", is_prime(cert.q) and cert.q % 2 == 1, f"q={cert.q}")
    check("p_prime", is_prime(cert.p) and cert.p % 2 == 1, f"p={cert.p}")
    check("p_bound", cert.p <= MAX_WITNESS_P, f"p={cert.p}, finder's limit {MAX_WITNESS_P}")
    check("p_distinct_from_q", cert.p != cert.q)
    curve, point, spec, p, q = cert.curve, cert.point, cert.spec, cert.p, cert.q
    check("point_on_curve", curve.contains(point))
    torsion, _ = is_torsion(point, curve)
    check("point_nontorsion", not torsion)
    try:
        require_exact_companion(curve, point)
        companion_ok, companion_detail = True, ""
    except ValueError as exc:
        companion_ok, companion_detail = False, str(exc)
    check("companion_model", companion_ok, companion_detail)
    good = (curve.disc * point.z * 2 * point.y) % p != 0
    check("good_reduction", good, "p must avoid disc, z1 and 2*y1")
    check("lrs_reduction", spec.coeffs[-1] % p != 0, "p must not divide the last coefficient")
    if not all(c.ok for c in checks):
        return VerifyResult(False, checks)

    cfp = CurveFp.from_curve(curve, p)
    n_points, trace = count_points_naive(cfp)
    check("n_points", n_points == cert.n_points, f"recounted {n_points}")
    check("trace", trace == cert.trace, f"recomputed {trace}")
    check("hasse", hasse_window(n_points, p))
    order_p = point_order_fp(reduce_point(point, curve, p), cfp, n_points)
    check("point_order", order_p == cert.point_order, f"recomputed {order_p}")
    check("q_divides_order", order_p % q == 0)

    lo, hi = cert.tz_window
    window_cap = _period_horizon(order_p, p)
    window_ok = check("tz_window", hi <= window_cap, f"end {hi}, finder's limit {window_cap}")
    indices = [n for n, _, _ in cert.mismatches]
    indices_ok = check(
        "mismatch_index",
        len(set(indices)) == len(indices) and all(1 <= n <= MAX_MISMATCH_INDEX for n in indices),
        f"mismatches indices must be distinct and lie in 1..{MAX_MISMATCH_INDEX}",
    )
    if not (window_ok and indices_ok):
        return VerifyResult(False, checks)

    tz, r = cert.tz_period, order_p
    tz_ok = minimal_ok = False
    tz_detail = "tz must be a multiple of the point order, with 2*tz inside the stated window"
    if lo == 1 and 0 < 2 * tz <= hi and tz % r == 0:
        w = stream_mod_p(division_poly_seeds(curve, point), p, 2 * r + 2)
        tz_ok, minimal_ok, tz_detail = _check_ward_period(w, r, tz // r, p)
    check("tz_period", tz_ok, tz_detail)
    check("tz_minimal", minimal_ok, "a smaller multiple of the point order must not be a period")
    check("q_divides_tz", cert.q_divides_tz and cert.tz_period % q == 0)

    sq = square_sampled_period(spec, p)
    check("lrs_period", sq.lrs_period == cert.lrs_period, f"recomputed {sq.lrs_period}")
    check("tu_period", sq.period == cert.tu_period, f"recomputed {sq.period}")
    check("q_not_divides_tu", (not cert.q_divides_tu) and sq.period % q != 0)

    mism_ok = len(cert.mismatches) >= 1
    detail = ""
    for n, z_stated, u_stated in cert.mismatches:
        z_mod = scalar_mul(n, point, curve).z % p
        u_mod = eval_mod(spec, n * n, p)
        if z_mod != z_stated or u_mod != u_stated:
            mism_ok, detail = False, f"index {n}: stored residues do not recompute"
            break
        if not _mismatch_residue(z_mod, u_mod, p):
            mism_ok, detail = False, f"index {n}: sequences agree up to sign"
            break
    check("mismatches", mism_ok, detail)

    return VerifyResult(all(c.ok for c in checks), checks)


# ---------------------------------------------------------------------------
# direct falsification


def compare_streams(a: list[int], b: list[int], p: int, start: int, count: int) -> list[int]:
    """Indices n in [start, start+count) where a_n != +-b_n mod p (1-based)."""
    out = []
    for n in range(start, start + count):
        if _mismatch_residue(a[n] % p, b[n] % p, p):
            out.append(n)
    return out


def direct_falsify(
    curve: CurveQ,
    point: PointQ,
    spec: LrsSpec,
    n_claim: int,
    p: int,
    window: int,
) -> list[int]:
    """Indices n >= n_claim with z_n != +-u_{n^2} (mod p) over the window.

    An empty result only means no counterexample was seen in the window,
    never that the sequences agree.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if (curve.disc * point.z * 2 * point.y) % p == 0:
        raise ValueError("need good reduction and p coprime to z1, 2*y1")
    require_exact_companion(curve, point)
    if n_claim < 1 or window < 1:
        raise ValueError("need n_claim >= 1 and window >= 1")
    hi = n_claim + window - 1
    # z_n = z_1*|w_n|; the sign of w_n does not matter against +-u_{n^2}
    stream = [point.z * w % p for w in stream_mod_p(division_poly_seeds(curve, point), p, hi)]
    u_vals = [0] * (hi + 1)
    for n in range(n_claim, hi + 1):
        u_vals[n] = eval_mod(spec, n * n, p)
    return compare_streams(stream, u_vals, p, n_claim, window)
