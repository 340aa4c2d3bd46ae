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

from . import _clip, _int, _print_limit, _span
from .eds import _period_horizon, generate_geometric, require_exact_companion, ward_period
from .elliptic import (
    DEFAULT_A_TARGET,
    CurveFp,
    CurveQ,
    PointQ,
    count_points,
    count_points_naive,
    division_poly_seeds,
    hasse_interval,
    is_torsion,
    ladder_block,
    order_class_primes,
    point_order_fp,
    reduce_point,
    small_multiple,
)
from .lrs import LrsSpec, eval_mod, square_sampled_period
from .ntkernel import is_prime, legendre_symbol, next_prime

SCHEMA_VERSION = "1"
# the finder lists the first 12 mismatches among z_1..z_60 and certifies at least 10
DEFAULT_MISMATCH_LIMIT = 60
DEFAULT_MIN_MISMATCHES = 10
LISTED_MISMATCHES = 12
SHORT_MISMATCH_LIMIT = 24  # read first: z_1..z_24 held the 12th on every benchmark claim
# largest mismatch index the verifier recomputes, exactly the finder's limit:
# the exact z_n it needs has about h*n^2 digits (h the canonical height)
MAX_MISMATCH_INDEX = DEFAULT_MISMATCH_LIMIT
# largest witness prime: the verifier's independent recount of #E(F_p),
# `count_points_naive`, takes O(p) time and memory, so it bounds p by this
# before the recount, and the finder certifies no larger p
MAX_WITNESS_P = 999_997
# direct_falsify's window and last index bound its time only: each index
# takes one `eval_mod` of u_(n^2) and one `ladder_block` for w_n, O(log n)
# steps each, and no term outlives its index
MAX_FALSIFY_WINDOW = 10_000
MAX_FALSIFY_INDEX = 10**6


# ---------------------------------------------------------------------------
# certificates


# scalar certificate fields: integers as decimal strings, windows as pairs of
# them, flags as JSON booleans
_INT_FIELDS = ("q", "p", "trace", "n_points", "point_order", "tz_period", "tu_period", "lrs_period")
_WINDOW_FIELDS = ("tz_window", "tu_window")
_FLAG_FIELDS = ("q_divides_tz", "q_divides_tu")


def _int_pair(value, num) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"expected a pair of integers, got {_clip(repr(value))}")
    return num(value[0]), num(value[1])


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {_clip(repr(value))}")
    return value


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
            "mismatches": [
                {"n": str(n), "z_mod": str(z), "u_mod": str(u)} for n, z, u in self.mismatches
            ],
            **{name: str(getattr(self, name)) for name in _INT_FIELDS},
            **{name: [str(v) for v in getattr(self, name)] for name in _WINDOW_FIELDS},
            **{name: getattr(self, name) for name in _FLAG_FIELDS},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "WitnessCertificate":
        """Parse `to_json` output.  Every error is a ValueError: one that names
        the field, or the reason a curve, point or recurrence is refused."""
        # a bare JSON integer past the int-to-str limit stays digits, for `_int` to refuse by name
        payload = json.loads(text, parse_int=lambda d: d if 0 < _print_limit() < len(d.lstrip("-")) else int(d))
        if not isinstance(payload, dict):
            raise ValueError("a certificate must be a JSON object")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {_clip(repr(payload.get('schema_version')))}")
        parsers = {  # each field's value; `num` reads an integer from its text, so no JSON float or boolean is one
            "curve": lambda c, num: CurveQ(num(c["a"]), num(c["b"])),
            "point": lambda c, num: PointQ(num(c["x"]), num(c["y"]), num(c["z"])),
            "lrs": lambda s, num: LrsSpec(num(s["order"]), tuple(map(num, s["coeffs"])), tuple(map(num, s["initial"]))),
            "mismatches": lambda ms, num: [(num(m["n"]), num(m["z_mod"]), num(m["u_mod"])) for m in ms],
            **dict.fromkeys(_INT_FIELDS, lambda v, num: num(v)),
            **dict.fromkeys(_WINDOW_FIELDS, _int_pair),
            **dict.fromkeys(_FLAG_FIELDS, lambda v, num: _json_bool(v)),
        }
        fields = {}
        for name, parse in parsers.items():
            named = f"certificate field {name!r}"
            if name not in payload:
                raise ValueError(f"{named} is missing")
            try:  # a ValueError passes: `_int` names the field, and a class gives its reason
                fields[name] = parse(payload[name], lambda value: _int(str(value), named))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{named} is malformed: {exc!r}") from None
        return cls(spec=fields.pop("lrs"), **fields)


# ---------------------------------------------------------------------------
# q selection


def validate_q(
    q: int, spec: LrsSpec, curve: CurveQ, exclusions: tuple[int, ...] = (), a_target: int = DEFAULT_A_TARGET
) -> None:
    """a_target must be at least 2, and q an odd prime with a_target != 1
    (mod q), avoiding the last coefficient, the discriminant, the exclusion
    list, and every (a_target - 1)^j - 1 for j up to the order k; on a curve
    with complex multiplication, q must not be inert in its CM field unless
    a_target - 1 = -1 or 3 (mod q).

    The finder scans p = a_target - 1 (mod q), where p^j - 1 = (a_target -
    1)^j - 1 (mod q), so the rule ord_q(a_target - 1) > k keeps q coprime
    to the multiplicative orders available modulo any such p.  An inert q
    divides #E(F_p) at a good p >= 5 only if p = +-1 (mod q): an ordinary p
    splits in the CM field (Deuring), so q | #E = N(pi - 1) gives pi = 1
    (mod q) and p = pi*conj(pi) = 1; a supersingular p has a_p = 0, so #E =
    p + 1.  At p = 3, a_p = +-3 can give #E = 7, hence the exception for 3.
    """
    if a_target < 2:
        raise ValueError("the trace target must be at least 2")
    if q < 3 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    if (a_target - 1) % q == 0:
        raise ValueError("a_target = 1 (mod q) makes the determinant class vanish")
    if q in exclusions:
        raise ValueError(f"q={q} is excluded")
    if spec.coeffs[-1] % q == 0:
        raise ValueError(f"q={q} divides the last recurrence coefficient")
    if curve.disc % q == 0:
        raise ValueError(f"q={q} divides the curve discriminant")
    for j in range(1, spec.order + 1):
        if ((a_target - 1) ** j - 1) % q == 0:
            raise ValueError(f"q={q} divides {a_target - 1}^{j} - 1")
    d = curve.cm_discriminant
    if d is not None and legendre_symbol(d, q) == -1 and (a_target - 1) % q not in (q - 1, 3 % q):
        raise ValueError(f"q={q} is inert in the CM field Q(sqrt({d})), so q | #E(F_p) needs p = +-1 (mod q)")


def choose_q(
    spec: LrsSpec, curve: CurveQ, exclusions: tuple[int, ...] = (), a_target: int = DEFAULT_A_TARGET
) -> int:
    """Smallest admissible prime larger than the recurrence order.

    From a_target = 3 on, every prime above (a_target - 1)^k that avoids the
    discriminant, the last coefficient and the exclusions is admissible, so
    the search ends; at a_target = 2 no q is, as q divides 1^1 - 1 = 0.
    """
    if a_target < 3:
        raise ValueError(
            "the trace target must be at least 2" if a_target < 2 else "at a_target = 2 every q divides 1^1 - 1"
        )
    q = next_prime(spec.order)
    while True:
        try:
            validate_q(q, spec, curve, exclusions, a_target)
            return q
        except ValueError:
            q = next_prime(q)


# ---------------------------------------------------------------------------
# the finder


@dataclass
class FindResult:
    certificate: WitnessCertificate | None  # None: the scan was exhausted
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.certificate is not None


def _mismatch_residue(z_mod: int, u_mod: int, p: int) -> bool:
    return (z_mod - u_mod) % p != 0 and (z_mod + u_mod) % p != 0


def find_witness(
    curve: CurveQ,
    point: PointQ,
    spec: LrsSpec,
    q: int | None = None,
    *,
    a_target: int = DEFAULT_A_TARGET,
    p_max: int = MAX_WITNESS_P,
    exclusions: tuple[int, ...] = (),
) -> FindResult:
    """Scan primes in ascending order for a witness and certify the first hit.

    Wanted: p = a_target - 1 (mod q), good reduction, and q | r = ord(P mod
    p); then q | #E(F_p) = a_target - a_p (mod q), so a_p = a_target (mod
    q).  The candidates are the primes `elliptic.order_class_primes` yields;
    only at one are #E(F_p) and r computed, and the certificate states them.
    Its periods come from `ward_period` (w_n) and `square_sampled_period`
    (u); a p where the first returns None or the second refuses (past
    `lrs.MAX_WALK`, or factoring gave up) counts as `period_unconfirmed`.
    Mismatches come from z_1..z_24, or z_1..z_60 when those hold fewer than
    12, with the same result either way.  The scan stops at min(p_max,
    `MAX_WITNESS_P`), as the verifier refuses a larger p.  Any non-torsion
    point and any recurrence is accepted: the zeros of z_n mod p are the
    multiples of r at every p the scan keeps, as each prime of gcd(2y, 3x^2
    + a*z^4) divides 2y.  Identical inputs always produce identical output.
    The stats add the candidates' counts to the scan's tallies, its `bad`
    as `divides_invariants`; a traced run writes them, and the witness p,
    in one `refuter.scan` span.
    """
    if not curve.contains(point):
        raise ValueError("point is not on the curve")
    torsion, order = is_torsion(point, curve)
    if torsion:
        raise ValueError(f"point is torsion (order {order})")
    seeds = division_poly_seeds(curve, point)
    if q is None:
        q = choose_q(spec, curve, exclusions, a_target)
    else:
        validate_q(q, spec, curve, exclusions, a_target)
    b_target = (a_target - 1) % q
    invariants = curve.bad_prime_product(point) * spec.coeffs[-1]
    bound = min(p_max, MAX_WITNESS_P)
    q_point = small_multiple(q, point, curve)
    counts = {"period_unconfirmed": 0, "too_few_mismatches": 0, "candidates": 0}
    tally: dict[str, int] = {}
    exact_prefix: list[int] = []
    cert = None

    with _span("refuter.scan", q=q, p_max=bound, base="rational" if q_point else "per-prime") as record:
        for p in order_class_primes(curve, point, q_point, q, b_target, invariants, exclusions, bound, 0, tally):
            counts["candidates"] += 1
            cfp = CurveFp(p, curve.a % p, curve.b % p, True)
            n_points, trace = count_points(cfp)
            assert trace % q == a_target % q  # #E = a_target - trace (mod q), and q | #E
            order_p = point_order_fp(reduce_point(point, curve, p), cfp, n_points)

            tz = ward_period(seeds, p, order_p)
            try:
                sq = square_sampled_period(spec, p) if tz is not None else None
            except ValueError:  # the period of u mod p passed lrs.MAX_WALK, or factoring gave up
                sq = None
            if sq is None:
                counts["period_unconfirmed"] += 1
                continue
            assert sq.period % q, "q passes validate_q, so it divides no period of u mod p"
            for limit in (SHORT_MISMATCH_LIMIT, DEFAULT_MISMATCH_LIMIT):
                if len(exact_prefix) < limit:
                    exact_prefix = generate_geometric(curve, point, limit).terms
                residues = [(n, z % p, sq.u_mod(n * n)) for n, z in enumerate(exact_prefix, start=1)]
                mismatches = [(n, z, u) for n, z, u in residues if _mismatch_residue(z, u, p)]
                if len(mismatches) >= LISTED_MISMATCHES:
                    break
            if len(mismatches) < DEFAULT_MIN_MISMATCHES:
                counts["too_few_mismatches"] += 1
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
                tz_window=(1, _period_horizon(order_p, p)),
                tu_period=sq.period,
                tu_window=sq.window,
                lrs_period=sq.lrs_period,
                q_divides_tz=tz % q == 0,
                q_divides_tu=False,
                mismatches=mismatches[:LISTED_MISMATCHES],
            )
            break
        stats = {"scanned": sum(tally.values()) + counts["candidates"], **tally, **counts}
        stats["divides_invariants"] = stats.pop("bad")
        if record is not None:
            record.update(stats, **({"p": cert.p} if cert else {}))
    return FindResult(cert, stats)


# ---------------------------------------------------------------------------
# the verifier


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyResult:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]


def verify_certificate(cert: WitnessCertificate) -> VerifyResult:
    """Re-derive every certified fact from scratch; fail naming the field.

    Uses only the arithmetic primitives, not any state cached by the finder.
    #E(F_p) is recounted by `count_points_naive`, an algorithm independent
    of the Shanks-Mestre count that found the witness.  The least period of
    w_n mod p is re-derived by `ward_period` from the recomputed order r, in
    O(log p) ladder steps; the periods are its multiples, so tz must be one
    and, to be minimal, equal it.  z_n comes from one `generate_geometric`
    prefix to the largest stated index.  p, q, the window and the indices are
    bounded by the finder's limits before any primality test, count, ladder
    or exact term, and the walk of u mod p by `lrs.MAX_WALK`: no edit makes
    it run away.
    """
    verdict = VerifyResult([])

    def check(name: str, ok: bool, detail: str = ""):
        verdict.checks.append(CheckResult(name, bool(ok), detail))
        return ok

    # a number past the bounds fails untested: a q above the top of the Hasse interval
    # at the finder's limit divides no point order that p_bound lets through
    for name, n, top, what in (
        ("q", cert.q, hasse_interval(MAX_WITNESS_P)[1], "largest point order at the finder's limit"),
        ("p", cert.p, MAX_WITNESS_P, "finder's limit"),
    ):
        untested = f", untested: above {top}, the {what}" if n > top else ""
        check(f"{name}_prime", not untested and is_prime(n) and n % 2 == 1, f"{name}={n}{untested}")
    check("p_bound", cert.p <= MAX_WITNESS_P, f"p={cert.p}, finder's limit {MAX_WITNESS_P}")
    check("p_distinct_from_q", cert.p != cert.q)
    curve, point, spec, p, q = cert.curve, cert.point, cert.spec, cert.p, cert.q
    check("point_on_curve", curve.contains(point))
    check("point_nontorsion", not is_torsion(point, curve)[0])
    check("good_reduction", curve.bad_prime_product(point) % p != 0, "p must avoid disc, z1 and 2*y1")
    check("lrs_reduction", spec.coeffs[-1] % p != 0, "p must not divide the last coefficient")
    if not verdict.ok:
        return verdict

    cfp = CurveFp.from_curve(curve, p)
    n_points, trace = count_points_naive(cfp)
    check("n_points", n_points == cert.n_points, f"recounted {n_points}")
    check("trace", trace == cert.trace, f"recomputed {trace}")
    low, high = hasse_interval(p)
    check("hasse", low <= n_points <= high)
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
        return verdict

    tz = cert.tz_period
    least = ward_period(division_poly_seeds(curve, point), p, order_p)
    tz_ok = least is not None and lo == 1 and 0 < 2 * tz <= hi and tz % least == 0
    tz_detail = f"least period {least}: tz must be a multiple of it, with 2*tz inside the stated window"
    check("tz_period", tz_ok, "" if tz_ok else tz_detail)
    check("tz_minimal", tz_ok and tz == least, "a smaller multiple of the point order must not be a period")
    check("q_divides_tz", cert.q_divides_tz and cert.tz_period % q == 0)

    try:
        sq = square_sampled_period(spec, p)
    except ValueError as exc:  # the period of u mod p passed lrs.MAX_WALK, or factoring gave up
        check("lrs_period", False, str(exc))
        return verdict
    check("lrs_period", sq.lrs_period == cert.lrs_period, f"recomputed {sq.lrs_period}")
    check("tu_period", sq.period == cert.tu_period, f"recomputed {sq.period}")
    check("tu_window", cert.tu_window == sq.window, f"recomputed {sq.window}")
    check("q_not_divides_tu", (not cert.q_divides_tu) and sq.period % q != 0)

    mism_ok = len(cert.mismatches) >= 1
    detail = ""
    z_terms = generate_geometric(curve, point, max(indices)).terms if indices else []
    for n, z_stated, u_stated in cert.mismatches:
        z_mod, u_mod = z_terms[n - 1] % p, sq.u_mod(n * n)
        if z_mod != z_stated or u_mod != u_stated:
            mism_ok, detail = False, f"index {n}: stored residues do not recompute"
            break
        if not _mismatch_residue(z_mod, u_mod, p):
            mism_ok, detail = False, f"index {n}: sequences agree up to sign"
            break
    check("mismatches", mism_ok, detail)

    return verdict


# ---------------------------------------------------------------------------
# direct falsification


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
    if not curve.contains(point):
        raise ValueError("point is not on the curve")
    if n_claim < 1 or window < 1:
        raise ValueError("need n_claim >= 1 and window >= 1")
    if window > MAX_FALSIFY_WINDOW:
        raise ValueError(f"window {window} exceeds the falsify window bound {MAX_FALSIFY_WINDOW}")
    hi = n_claim + window - 1
    if hi > MAX_FALSIFY_INDEX:
        raise ValueError(f"last index {hi} exceeds the falsify index bound {MAX_FALSIFY_INDEX}")
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if curve.bad_prime_product(point) % p == 0:
        raise ValueError("need good reduction and p coprime to z1, 2*y1")
    require_exact_companion(curve, point)
    seeds = division_poly_seeds(curve, point)
    # z_n = z_1*|w_n|; the sign of w_n does not matter against +-u_{n^2}
    return [
        n
        for n in range(n_claim, hi + 1)
        if _mismatch_residue(point.z * ladder_block(seeds, p, n)[3] % p, eval_mod(spec, n * n, p), p)
    ]
