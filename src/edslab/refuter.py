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

from . import _clip, _int, _print_limit, _span, lrs
from .eds import _period_horizon, eds_period_mod_p, generate_geometric, require_exact_companion, ward_period
from .elliptic import (
    DEFAULT_A_TARGET,
    CurveFp,
    CurveQ,
    PointQ,
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


def _int_pair(value, num) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"expected a pair of integers, got {_clip(repr(value))}")
    return num(value[0]), num(value[1])


def _json_bool(value, _num) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {_clip(repr(value))}")
    return value


# JSON key -> (attribute, its JSON form, its value read back from that form), in the
# order `from_json` reads them.  Integers are decimal strings, which `num` reads, so no
# JSON float or boolean is one; windows are pairs of them, flags JSON booleans
_FIELDS = {
    "curve": ("curve", lambda c: {"a": str(c.a), "b": str(c.b)}, lambda c, num: CurveQ(num(c["a"]), num(c["b"]))),
    "point": (
        "point",
        lambda pt: {"x": str(pt.x), "y": str(pt.y), "z": str(pt.z)},
        lambda pt, num: PointQ(num(pt["x"]), num(pt["y"]), num(pt["z"])),
    ),
    "lrs": (
        "spec",
        lambda s: {"order": str(s.order), "coeffs": [*map(str, s.coeffs)], "initial": [*map(str, s.initial)]},
        lambda s, num: LrsSpec(num(s["order"]), tuple(map(num, s["coeffs"])), tuple(map(num, s["initial"]))),
    ),
    "mismatches": (
        "mismatches",
        lambda ms: [{"n": str(n), "z_mod": str(z), "u_mod": str(u)} for n, z, u in ms],
        lambda ms, num: [(num(m["n"]), num(m["z_mod"]), num(m["u_mod"])) for m in ms],
    ),
    **{
        k: (k, str, lambda v, num: num(v))
        for k in ("q", "p", "trace", "n_points", "point_order", "tz_period", "tu_period", "lrs_period")
    },
    **{k: (k, lambda w: [*map(str, w)], _int_pair) for k in ("tz_window", "tu_window")},
    **{k: (k, lambda flag: flag, _json_bool) for k in ("q_divides_tz", "q_divides_tu")},
}


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
        payload = {key: form(getattr(self, attr)) for key, (attr, form, _) in _FIELDS.items()}
        payload["schema_version"] = SCHEMA_VERSION
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
        fields = {}
        for key, (attr, _, parse) in _FIELDS.items():
            named = f"certificate field {key!r}"
            if key not in payload:
                raise ValueError(f"{named} is missing")
            try:  # a ValueError passes: `_int` names the field, and a class gives its reason
                fields[attr] = parse(payload[key], lambda value: _int(str(value), named))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{named} is malformed: {exc!r}") from None
        return cls(**fields)


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
    only at one does `eds.eds_period_mod_p`, the routine `eds period` prints,
    compute #E(F_p), a_p, r and the period of w_n with its window, which the
    certificate states.  The period of u comes from `square_sampled_period`;
    a p where the first is unconfirmed or the second refuses (past
    `lrs.MAX_WALK`, or factoring gave up) counts as `period_unconfirmed`.
    Mismatches come from z_1..z_24, or z_1..z_60 when those hold fewer than
    12, with the same result either way.  z_1..z_24 are built first: their
    `generate_geometric` refuses a point off the curve or torsion.  The scan
    stops at min(p_max, `MAX_WITNESS_P`), as the verifier refuses a larger
    p.  Any other point and any recurrence is accepted: the zeros of z_n
    mod p are the multiples of r at every p the scan keeps, as each prime
    of gcd(2y, 3x^2 + a*z^4) divides 2y.  Identical inputs give identical
    output.  The stats add the candidates' counts to the scan's tallies, its
    `bad` as `divides_invariants`; a traced run writes them, and the witness
    p, in one `refuter.scan` span.
    """
    prefix = generate_geometric(curve, point, SHORT_MISMATCH_LIMIT)  # `eds_period_mod_p` reads no term
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
    cert = None

    with _span("refuter.scan", q=q, p_max=bound, base="rational" if q_point else "per-prime") as record:
        for p in order_class_primes(curve, point, q_point, q, b_target, invariants, exclusions, bound, 0, tally):
            counts["candidates"] += 1
            at_p = eds_period_mod_p(prefix, p)
            assert at_p.trace % q == a_target % q  # #E = a_target - trace (mod q), and q | #E
            try:
                sq = square_sampled_period(spec, p) if at_p.confirmed else None
            except ValueError:  # the period of u mod p passed lrs.MAX_WALK, or factoring gave up
                sq = None
            if sq is None:
                counts["period_unconfirmed"] += 1
                continue
            assert sq.period % q, "q passes validate_q, so it divides no period of u mod p"
            for limit in (SHORT_MISMATCH_LIMIT, DEFAULT_MISMATCH_LIMIT):
                if len(prefix) < limit:
                    prefix = generate_geometric(curve, point, limit)
                residues = [(n, z % p, sq.u_mod(n * n)) for n, z in enumerate(prefix.terms, start=1)]
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
                trace=at_p.trace,
                n_points=at_p.n_points,
                point_order=at_p.rank,
                tz_period=at_p.period,
                tz_window=at_p.window,
                tu_period=sq.period,
                tu_window=sq.window,
                lrs_period=sq.lrs_period,
                q_divides_tz=at_p.period % q == 0,
                q_divides_tu=False,
                mismatches=mismatches[:LISTED_MISMATCHES],
            )
            break
        stats = {"scanned": sum(tally.values()) + counts["candidates"], **tally, **counts}
        stats["divides_invariants"] = stats.pop("bad")
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
    or exact term, and the walk of u mod p by the stated `lrs_period`, at
    most `lrs.MAX_WALK`: no edit makes it run away.  The checks are the rows of the stages of `_SCHEMA_1`, in
    order.  Under EDSLAB_TRACE=1 each call writes one span with `p`, the
    recount's `n_points` (absent when a bound check ends it first) and
    `failed`, the names of the checks that failed.
    """
    with _span("refuter.verify_certificate", p=cert.p) as record:
        verdict, found = VerifyResult([]), {}
        for stage, ends_on_failure in _SCHEMA_1:
            rows = [CheckResult(name, bool(ok), detail) for name, ok, detail in stage(cert, record, found)]
            verdict.checks += rows
            if ends_on_failure and not all(row.ok for row in rows):
                break
        record["failed"] = verdict.failures
    return verdict


def _bounds(cert: WitnessCertificate, record: dict, found: dict):
    """Every bound the later stages' work depends on, and the reductions at p."""
    # a number past the bounds fails untested: a q above the top of the Hasse interval
    # at the finder's limit divides no point order that p_bound lets through
    for name, n, top, what in (
        ("q", cert.q, hasse_interval(MAX_WITNESS_P)[1], "largest point order at the finder's limit"),
        ("p", cert.p, MAX_WITNESS_P, "finder's limit"),
    ):
        untested = f", untested: above {top}, the {what}" if n > top else ""
        yield f"{name}_prime", not untested and is_prime(n) and n % 2 == 1, f"{name}={n}{untested}"
    yield "p_bound", cert.p <= MAX_WITNESS_P, f"p={cert.p}, finder's limit {MAX_WITNESS_P}"
    yield "p_distinct_from_q", cert.p != cert.q, ""
    yield "point_on_curve", cert.curve.contains(cert.point), ""
    yield "point_nontorsion", not is_torsion(cert.point, cert.curve)[0], ""
    good = cert.p != 0 and cert.curve.bad_prime_product(cert.point) % cert.p != 0  # p = 0 fails p_prime
    yield "good_reduction", good, "p must avoid disc, z1 and 2*y1"
    yield "lrs_reduction", cert.p != 0 and cert.spec.coeffs[-1] % cert.p != 0, "p must not divide the last coefficient"


def _order(cert: WitnessCertificate, record: dict, found: dict):
    """#E(F_p) recounted, with its trace, and the order of P mod p, which it puts in `found`."""
    cfp = CurveFp.from_curve(cert.curve, cert.p)
    n_points, trace = count_points_naive(cfp)
    record["n_points"] = n_points
    yield "n_points", n_points == cert.n_points, f"recounted {n_points}"
    yield "trace", trace == cert.trace, f"recomputed {trace}"
    low, high = hasse_interval(cert.p)
    yield "hasse", low <= n_points <= high, ""
    found["order"] = order_p = point_order_fp(reduce_point(cert.point, cert.curve, cert.p), cfp, n_points)
    yield "point_order", order_p == cert.point_order, f"recomputed {order_p}"
    yield "q_divides_order", order_p % cert.q == 0, ""


def _windows(cert: WitnessCertificate, record: dict, found: dict):
    """The stated window and mismatch indices, within the finder's limits."""
    hi, cap = cert.tz_window[1], _period_horizon(found["order"], cert.p)
    yield "tz_window", hi <= cap, f"end {hi}, finder's limit {cap}"
    indices = [n for n, _, _ in cert.mismatches]
    ok = len(set(indices)) == len(indices) and all(1 <= n <= MAX_MISMATCH_INDEX for n in indices)
    yield "mismatch_index", ok, f"mismatches indices must be distinct and lie in 1..{MAX_MISMATCH_INDEX}"


def _periods(cert: WitnessCertificate, record: dict, found: dict):
    """The periods of w_n and u_(n^2) mod p, re-derived, and the stated mismatches recomputed."""
    curve, point, p, q, tz = cert.curve, cert.point, cert.p, cert.q, cert.tz_period
    lo, hi = cert.tz_window
    least = ward_period(division_poly_seeds(curve, point), p, found["order"])
    tz_ok = least is not None and lo == 1 and 0 < 2 * tz <= hi and tz % least == 0
    tz_detail = f"least period {least}: tz must be a multiple of it, with 2*tz inside the stated window"
    yield "tz_period", tz_ok, "" if tz_ok else tz_detail
    yield "tz_minimal", tz_ok and tz == least, "a smaller multiple of the point order must not be a period"
    yield "q_divides_tz", cert.q_divides_tz and tz % q == 0, ""
    try:
        sq = square_sampled_period(cert.spec, p, min(cert.lrs_period, lrs.MAX_WALK))
    except ValueError as exc:  # the period of u mod p passed the stated one or lrs.MAX_WALK, or factoring gave up
        yield "lrs_period", False, str(exc)
        return
    yield "lrs_period", sq.lrs_period == cert.lrs_period, f"recomputed {sq.lrs_period}"
    yield "tu_period", sq.period == cert.tu_period, f"recomputed {sq.period}"
    yield "tu_window", cert.tu_window == sq.window, f"recomputed {sq.window}"
    yield "q_not_divides_tu", (not cert.q_divides_tu) and sq.period % q != 0, ""
    z_terms = generate_geometric(curve, point, max(n for n, _, _ in cert.mismatches)).terms if cert.mismatches else []
    for n, z_stated, u_stated in cert.mismatches:
        z_mod, u_mod = z_terms[n - 1] % p, sq.u_mod(n * n)
        if (z_mod, u_mod) != (z_stated, u_stated):
            yield "mismatches", False, f"index {n}: stored residues do not recompute"
            return
        if not _mismatch_residue(z_mod, u_mod, p):
            yield "mismatches", False, f"index {n}: sequences agree up to sign"
            return
    yield "mismatches", bool(cert.mismatches), ""


# a verifier's (stage, ends_on_failure) pairs, in order: a stage takes the certificate, the span's
# record and the facts found by the stages before it, and yields its checks as (name, ok, detail)
_SCHEMA_1 = ((_bounds, True), (_order, False), (_windows, True), (_periods, False))


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
    never that the sequences agree.  Under EDSLAB_TRACE=1 each call writes one
    span with `p`, `ladders` (one per index) and their `steps`, counted as
    `ward_period` counts them.
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
        raise ValueError(f"need p coprime to the discriminant, z1 and 2*y1 (p={p})")
    require_exact_companion(curve, point)
    seeds = division_poly_seeds(curve, point)
    # z_n = z_1*|w_n|; the sign of w_n does not matter against +-u_{n^2}
    steps = sum(n.bit_length() for n in range(n_claim, hi + 1))  # max(bits of n, 1), as n >= 1
    with _span("refuter.direct_falsify", p=p, ladders=window, steps=steps):
        return [
            n
            for n in range(n_claim, hi + 1)
            if _mismatch_residue(point.z * ladder_block(seeds, p, n)[3] % p, eval_mod(spec, n * n, p), p)
        ]
