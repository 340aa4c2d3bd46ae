"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 exhaustion or inconclusive
result, 4 verification failure.  Values come from flags, then from an
optional key=value config file, then from built-in defaults; the cache
root can also be set with the EDSLAB_CACHE environment variable.
EDSLAB_TRACE=1 writes a trace of the run to stderr (see edslab._span).

Each command imports the library modules it calls when it runs, so that
importing this module and building the parser loads none of them; and a
subcommand builds and runs only its own parser.  The argparse tree is
built only to print help, usage and errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys

from . import _clip, _int, _print_limit, _span, _unprintable

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_VERIFY_FAILED = 4

CACHE_ENV = "EDSLAB_CACHE"
# largest `lrs decimate --m`, and M^2 of `lrs degenerate --reduce`: decimation
# generates m*(2k+8) exact terms whose sizes grow linearly in the index, so
# memory grows as m^2 (Fibonacci at m = 3000 peaks at 80 MB)
MAX_DECIMATE_M = 1000
# largest `eds gen --n * --stride`, `eds ward --n` and `eds zsigmondy --n`:
# generating z_1..z_N takes time that grows about 16x per doubling of N; on
# (-4,4), (1,1,1), 800 terms took 4.1 s (21 MB traced peak) and 1,000 took 11 s
# on a shared 2-core machine under Python 3.11.  It bounds steps, not term
# sizes: z_175 already has 4,300 digits
MAX_EDS_TERMS = 1000
# largest `eds period --p`: the baby-step table of count_points grows as
# p^(1/4); on (-4,4), (1,1,1), p = 10^18 + 3 took 0.6 s (29 MB max RSS) and
# p = 10^20 - 11 took 2.1 s (64 MB) on a shared 2-core machine under Python 3.11
MAX_PERIOD_P = 10**20
# largest `prooflab resclass --r`: a bytearray(r) of squares and up to r*t
# lookups; r = 10^6 + 3 took 1.7 s (18 MB max RSS) and 10^7 - 9 took 16 s (26 MB)
MAX_RESCLASS_R = 10**7
# largest `prooflab ell --e`: e - 1 Hensel lifts modulo r^e, in time about e^2.6;
# at r = 7, e = 1,000 took 0.55 s.  It bounds lifts, not the size of r^e
MAX_ELL_E = 1000
# most `prooflab det --betas`: the t x t determinant is eliminated modulo q; betas
# 2..t+1 took 6 ms in-process at t = 50 and 0.29 s at t = 200 with q = 1,000,003
# (10 ms and 0.51 s with q = 2^127 - 1), best runs on a shared 2-core machine, Python 3.11
MAX_DET_BETAS = 50
# most `prooflab qlemma --coeffs`: 50, 75 and 100 coefficients of 1 with --alpha 2
# took 1.3, 2.1 and 3.4 s.  It bounds the degree, not the coefficients' size
MAX_QLEMMA_COEFFS = 100
# largest order k of a recurrence, from --lrs or a file: lrs.is_degenerate grows as
# about k^4, mostly folding its ratio polynomial modulo x^m - 1 per order m; on
# u_(n+k) = u_(n+k-1) + u_n, `lrs degenerate` took 0.4-0.5 s (17 MB max RSS) at k = 24,
# 1.0-1.1 s (18 MB) at 32 and 2.3-2.8 s (18 MB) at 40 (shared 2-core machine, Python 3.11)
MAX_LRS_ORDER = 32

FORMATS = ("table", "json", "csv")  # the first is the default
CONFIG_KEYS = {"format", "cache_dir", "p_max", "q", "a", "jobs", "exclude", "bound", "n", "x"}


def _lines(path: str):
    """(FILE:LINE, text) for each line of the file ('-': stdin) that holds
    more than a comment, with what follows '#' dropped."""
    name = "stdin" if path == "-" else path
    with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield f"{name}:{lineno}", text


def _ints(where: str, words) -> list[int]:
    """The words of the FILE:LINE `where`, each an integer."""
    return [_int(word, f"{where}: {_clip(word)}") for word in words]


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for where, line in _lines(path):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{where}: expected key=value")
        if key not in CONFIG_KEYS:
            raise ValueError(f"{where}: unknown key {_clip(key)!r}")
        values[key] = value
    return values


def _named(args, key: str, value) -> str:
    """The value as an error names it: by its config key if it came from the config file, else by its flag."""
    if key in args._config:
        return f"{key} = {_clip(value)} in {args.config}"
    return f"--{key.replace('_', '-')} {_clip(value)}"


def _exclusions(args) -> tuple[int, ...]:
    text = args.exclude or ""
    named = _named(args, "exclude", repr(text))
    return tuple(_int(part, named, "list integers, separated by commas") for part in text.replace(",", " ").split())


def _read_numbers(args, options) -> None:
    """Set each option with a `_Number` to its flag's value, else its config value, else its
    default, read and checked as the `_Number` says; `args._given` holds the first two kinds."""
    args._given = set()
    for flag, _, rule in (option for option in options if len(option) == 3):
        key = flag[2:].replace("-", "_")
        value = getattr(args, key)
        if value is None:
            setattr(args, key, rule.default)
            continue
        args._given.add(key)
        if isinstance(value, list):
            if len(value) > rule.count:
                raise ValueError(f"{flag} has {len(value)} values, more than the bound {rule.count}")
            value = [rule.read(word, _named(args, key, word)) for word in value]
        else:
            value = rule.read(value, _named(args, key, value))
            if value < rule.least:
                raise ValueError(f"{_named(args, key, value)} must be at least {rule.least}")
            if value > rule.most:
                raise ValueError(f"{_named(args, key, value)} exceeds the {rule.bound} {rule.most}")
        setattr(args, key, value)


# ---------------------------------------------------------------------------
# output rendering


def _emit(fmt: str, headers: list[str], rows: list[list], json_payload=None):
    out = sys.stdout
    if fmt == "json":
        import json  # here, not at the top, like csv below

        payload = json_payload if json_payload is not None else [
            dict(zip(headers, row)) for row in rows
        ]
        out.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
        return
    cells = [[str(v) for v in row] for row in rows]  # int -> str is quadratic in the digits
    if fmt == "csv":
        import csv  # here, not at the top: importing it adds about 1 ms to every start

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
    else:
        widths = [
            max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
            for i, h in enumerate(headers)
        ]
        out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
        for row in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _emit_record(fmt: str, payload: dict) -> None:
    """One record: a one-row table or CSV, or the JSON object itself."""
    _emit(fmt, list(payload), [list(payload.values())], json_payload=payload)


def _fields(obj, *names: str) -> dict:
    """The named attributes of obj, in the order given."""
    return {name: getattr(obj, name) for name in names}


# ---------------------------------------------------------------------------
# shared ingestion


def _curve_point(args) -> tuple[elliptic.CurveQ, elliptic.PointQ]:
    from . import elliptic

    read = {}  # "curve" or "point" -> its integers, from the file's last such line
    if getattr(args, "curve_file", None):
        for where, line in _lines(args.curve_file):
            word, *words = line.split()
            if len(words) != {"curve": 2, "point": 3}.get(word):
                raise ValueError(f"{where}: expected 'curve A B' or 'point x y z'")
            read[word] = _ints(where, words)
    curve, point = args.curve or read.get("curve"), args.point or read.get("point")
    if curve is None or point is None:
        raise ValueError("this command needs --curve A B and --point x y z (or --curve-file)")
    curve, point = elliptic.CurveQ(*curve), elliptic.PointQ(*point)
    if not curve.contains(point):
        raise ValueError("the point is not on the curve")
    return curve, point


def _lrs_spec(args) -> lrs.LrsSpec:
    from . import lrs

    if getattr(args, "lrs", None):
        named, numbers = "--lrs", args.lrs
    elif getattr(args, "lrs_file", None):
        lines = [(where, line.split()) for where, line in _lines(args.lrs_file)]
        named, words = lines[-1] if lines else (args.lrs_file, [])
        if len(lines) != 1 or words[0] != "lrs" or len(words) == 1:
            raise ValueError(f"{named}: expected one line 'lrs k c1..ck u1..uk'")
        numbers = _ints(named, words[1:])
    else:
        raise ValueError("this command needs --lrs k c1..ck u1..uk or --lrs-file")
    k = numbers[0]
    if not 1 <= k <= MAX_LRS_ORDER:
        raise ValueError(f"{named}: the order {_clip(k)} must be at least 1 and at most {MAX_LRS_ORDER}")
    if len(numbers) != 2 * k + 1:
        raise ValueError(f"{named}: expected {2 * k} integers after the order, got {len(numbers) - 1}")
    return lrs.LrsSpec(k, tuple(numbers[1 : k + 1]), tuple(numbers[k + 1 :]))


# ---------------------------------------------------------------------------
# eds commands


def _at_most_terms(args, *keys: str) -> int:
    """The product of the options `keys`, a number of terms; more than
    MAX_EDS_TERMS is refused, naming each of them that a flag or the config gave."""
    terms = math.prod(getattr(args, key) for key in keys)
    if terms > MAX_EDS_TERMS:
        named = " times ".join(_named(args, key, getattr(args, key)) for key in keys if key in args._given)
        raise ValueError(f"{named} asks for {terms} terms, more than the bound {MAX_EDS_TERMS}")
    return terms


def _printable(name: str, values) -> None:
    """Refuse the first (i, v) of values whose v has more digits than CPython
    prints, named by name.format(i), before any v is converted.  A v of at
    most 3*limit bits is below 8^limit and prints, so 10^limit, some 14,000
    bits at the default limit, is formed only for a longer one."""
    limit = _print_limit()
    if limit:
        n = next((i for i, v in values if abs(v).bit_length() > 3 * limit and abs(v) >= 10**limit), None)
        if n is not None:
            raise _unprintable(name.format(n), limit)


def _printable_fields(payload: dict) -> None:
    """`_printable` over the numerator and the denominator of each int or
    Fraction of the payload, named by its key."""
    for key, value in payload.items():
        if hasattr(value, "denominator"):
            _printable("{}", [(key, value.numerator), (key, value.denominator)])


def _printable_spec(spec: lrs.LrsSpec, what: str) -> str:
    """The spec's `lrs k c1..ck u1..uk` line, once each entry passes `_printable`."""
    _printable(f"c{{}} of {what}", enumerate(spec.coeffs, 1))
    _printable(f"u{{}} of {what}", enumerate(spec.initial, 1))
    return str(spec)


def cmd_eds_gen(args) -> int:
    from . import eds

    terms = _at_most_terms(args, "n", "stride")
    curve, point = _curve_point(args)
    cache = os.environ.get(CACHE_ENV) if args.cache_dir is None else args.cache_dir
    seq = eds.load_sequence(cache, curve, point, terms) if cache else None
    if seq is None:
        seq = eds.generate_geometric(curve, point, terms)
        if cache:
            eds.save_sequence(cache, seq)
    indices = range(args.stride, terms + 1, args.stride)
    _printable("z_{}", ((i, seq.term(i)) for i in indices))
    rows = [[i, seq.term(i), f"{eds.height_ratio(i, seq.term(i)):.6f}"] for i in indices]
    _emit(args.format, ["n", "z_n", "log(z_n)/n^2"], rows)
    return EXIT_OK


def cmd_eds_ward(args) -> int:
    from . import eds

    n = _at_most_terms(args, "n")
    seq = eds.generate_ward(eds.WardSeed(*args.seed), n)
    _printable("w_{}", ((i, seq.term(i)) for i in range(1, n + 1)))
    rows = [[i, seq.term(i)] for i in range(1, n + 1)]
    _emit(args.format, ["n", "w_n"], rows)
    if seq.degenerate_at is not None:
        sys.stderr.write(f"warning: zero term at index {seq.degenerate_at}; sequence degenerate\n")
    return EXIT_OK


def cmd_eds_period(args) -> int:
    from . import eds

    curve, point = _curve_point(args)
    seq = eds.generate_geometric(curve, point, 1)  # checks the point; the period reads no term
    result = eds.eds_period_mod_p(seq, args.p)
    keys = ("p", "status", "period", "rank", "n_points", "trace", "period_bound", "divides_bound")
    _emit_record(args.format, {**_fields(result, *keys), "window": list(result.window)})
    return EXIT_OK if result.confirmed else EXIT_INCONCLUSIVE


def cmd_eds_zsigmondy(args) -> int:
    from . import eds

    n = _at_most_terms(args, "n")
    curve, point = _curve_point(args)
    seq = eds.generate_geometric(curve, point, n)
    # every part is known from gcds, as cheaply as the terms, before the scan factors any
    parts, gcds = eds.primitive_parts(seq)
    _printable("primitive part of z_{}", enumerate(parts, 1))
    reports = eds.primitive_divisor_scan(parts, gcds)
    rows = [
        [
            r.n,
            r.primitive_part,
            " ".join(map(str, r.primes)) or "-",
            "yes" if r.primitive_part > 1 else "no",
            "ok" if r.complete else "incomplete",
        ]
        for r in reports
    ]
    _emit(args.format, ["n", "primitive_part", "primes", "has_primitive", "factored"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lrs commands


def cmd_lrs_fit(args) -> int:
    from . import lrs

    terms = [_int(line, f"{where}: {_clip(line)}") for where, line in _lines(args.terms_file or "-")]
    bound = lrs.DEFAULT_FIT_BOUND if args.bound is None else args.bound
    fit = lrs.fit_minimal_recurrence(terms, bound)
    for order, coeffs in fit.fatou_violations:
        parts = ((i, max(abs(c.numerator), c.denominator)) for i, c in enumerate(coeffs, 1))
        _printable(f"c{{}} of the order-{order} fit", parts)
        sys.stderr.write(
            f"note: order {order} fits with non-integer coefficients {[str(c) for c in coeffs]}\n"
        )
    if not fit.ok:
        sys.stderr.write(f"no integer recurrence of order <= {bound} fits the {len(terms)} terms\n")
        return EXIT_INCONCLUSIVE
    print(_printable_spec(fit.spec, "the fitted recurrence"))
    return EXIT_OK


def cmd_lrs_eval(args) -> int:
    from . import lrs

    n = args.n
    spec = _lrs_spec(args)
    if args.mod is None:
        try:
            value = lrs.eval_exact(spec, n)
        except ValueError as exc:  # a power of x, or u_n, past lrs.MAX_TERM_BITS
            raise ValueError(f"--n {n}: {exc}; --mod M evaluates it modulo M") from None
        _printable("u_{}", [(n, value)])
        print(value)
    else:
        print(lrs.eval_mod(spec, n, args.mod))
    return EXIT_OK


def cmd_lrs_decimate(args) -> int:
    from . import lrs

    print(_printable_spec(lrs.decimate(_lrs_spec(args), args.m), "the decimated recurrence"))
    return EXIT_OK


def cmd_lrs_degenerate(args) -> int:
    from . import lrs

    spec = _lrs_spec(args)
    if not args.reduce:
        verdict, order = lrs.is_degenerate(spec)
        payload = {"degenerate": verdict, "witness_order": order}
    else:  # one scan of every order gives the verdict, the witness and M
        orders = list(lrs.ratio_orders(spec))
        payload = {"degenerate": bool(orders), "witness_order": min(orders, default=None)}
        if orders:
            m, reduced = lrs.nondegenerate_reduction(spec, orders, MAX_DECIMATE_M)
            payload["reduction_m"] = m
            payload["reduced"] = _printable_spec(reduced, "the reduced recurrence")
    _emit_record(args.format, payload)
    return EXIT_OK


def cmd_lrs_period(args) -> int:
    from . import lrs

    spec = _lrs_spec(args)
    if args.squares:  # its walk of u mod p gives the period of u too
        sq = lrs.square_sampled_period(spec, args.p)
        payload = {"p": args.p, "period": sq.lrs_period, "square_sampled_period": sq.period}
    else:
        payload = {"p": args.p, "period": lrs.lrs_period_mod_p(spec, args.p, method=args.method)}
    _emit_record(args.format, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# density commands


def cmd_density_gl2(args) -> int:
    from . import galois_density

    _emit_density(args.format, galois_density.count_gl2(args.q, args.a, args.b))
    return EXIT_OK


def cmd_density_affine(args) -> int:
    from . import galois_density

    _emit_density(args.format, galois_density.count_affine(args.q, args.a, args.b))
    return EXIT_OK


def cmd_density_empirical(args) -> int:
    from . import elliptic, galois_density

    curve, point = _curve_point(args)
    a = elliptic.DEFAULT_A_TARGET if args.a is None else args.a
    report = galois_density.empirical_density(curve, point, args.q, a, args.x, _exclusions(args), jobs=args.jobs)
    _emit_density(args.format, report)
    if report.empirical.hits < 30:
        sys.stderr.write("warning: fewer than 30 matching primes; the frequency is noisy\n")
    return EXIT_OK


def _emit_density(fmt: str, report: galois_density.DensityReport) -> None:
    delta = report.delta
    payload = {
        **_fields(report, "q", "a", "b", "numerator", "denominator"),
        "delta_num": delta.numerator,
        "delta_den": delta.denominator,
    }
    _printable_fields(payload)
    scan = report.empirical
    if scan is not None:
        counts = _fields(scan, "x", "hits", "scanned")
        if fmt == "json":
            payload["empirical"] = counts
        else:  # a table or CSV cell holds one value: flat x, hits, scanned
            payload.update(counts)
        payload["frequency"] = f"{scan.hits}/{scan.scanned}"
    payload["delta"] = f"{report.numerator}/{report.denominator}"
    _emit_record(fmt, payload)


# ---------------------------------------------------------------------------
# refute / verify / falsify


def cmd_refute(args) -> int:
    from . import refuter

    curve, point = _curve_point(args)
    spec = _lrs_spec(args)
    a = refuter.DEFAULT_A_TARGET if args.a is None else args.a
    p_max = refuter.MAX_WITNESS_P if args.p_max is None else args.p_max
    result = refuter.find_witness(curve, point, spec, args.q, a_target=a, p_max=p_max, exclusions=_exclusions(args))
    if not result.found:
        sys.stderr.write(f"no witness prime <= {min(p_max, refuter.MAX_WITNESS_P)}; per-condition counts:\n")
        for key, value in sorted(result.stats.items()):
            sys.stderr.write(f"  {key}: {value}\n")
        if not result.stats["candidates"]:
            sys.stderr.write("note: an empty class up to this bound does not prove that no witness exists beyond"
                             " it, and the mod-q Galois image may be smaller than GL2 (Zywina, arXiv:1508.07660)\n")
        return EXIT_INCONCLUSIVE
    verdict = refuter.verify_certificate(result.certificate)
    if not verdict.ok:
        sys.stderr.write(f"internal error: certificate failed checks {verdict.failures}\n")
        return EXIT_VERIFY_FAILED
    text = result.certificate.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"witness p={result.certificate.p} (q={result.certificate.q}); certificate: {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    import json

    from . import refuter

    with open(args.certificate) as fh:
        try:
            cert = refuter.WitnessCertificate.from_json(fh.read())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.certificate}:{exc.lineno}: not a JSON certificate: {exc.msg}") from None
    verdict = refuter.verify_certificate(cert)
    rows = [[c.name, "pass" if c.ok else "FAIL", c.detail] for c in verdict.checks]
    _emit(
        args.format,
        ["check", "result", "detail"],
        rows,
        json_payload={"ok": verdict.ok, "checks": [c.__dict__ for c in verdict.checks]},
    )
    return EXIT_OK if verdict.ok else EXIT_VERIFY_FAILED


def cmd_falsify(args) -> int:
    from . import refuter

    curve, point = _curve_point(args)
    indices = refuter.direct_falsify(curve, point, _lrs_spec(args), args.start, args.p, args.window)
    if not indices:
        print(f"no counterexample in window [{args.start}, {args.start + args.window})")
        return EXIT_INCONCLUSIVE
    print(" ".join(map(str, indices)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# prooflab commands


def _rational(text: str, named: str) -> Fraction:
    """p or p/q, each an integer by `_int`, with q not 0."""
    from fractions import Fraction

    must = "be a rational p or p/q, with q not 0"
    p, q = (_int(part, named, must) for part in (*text.split("/", 1), "1")[:2])
    if q == 0:
        raise ValueError(f"{named} must {must}")
    return Fraction(p, q)


def cmd_prooflab_qlemma(args) -> int:
    from . import prooflab
    from .ntkernel import Poly

    poly = Poly(*args.coeffs)
    result = prooflab.expand_q(poly, args.alpha)
    degree, leading = prooflab.q_lemma_prediction(poly, args.alpha)
    ok = result.degree == degree and result.leading == leading
    payload = {
        "degree": result.degree,
        "predicted_degree": degree,
        "leading": result.leading,  # a Fraction, printed by its str
        "predicted_leading": leading,
        "pass": ok,
    }
    _printable_fields(payload)
    _emit_record(args.format, payload)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_prooflab_det(args) -> int:
    from . import prooflab

    result = prooflab.det_beta_identity(args.betas, args.q)
    _emit_record(args.format, _fields(result, "determinant", "product", "sign", "consistent"))
    return EXIT_OK if result.consistent else EXIT_VERIFY_FAILED


def cmd_prooflab_resclass(args) -> int:
    from . import prooflab

    report = prooflab.count_admissible_residues(args.r, args.t, args.c)
    _emit_record(args.format, _fields(report, "r", "t", "c", "count", "deviation"))
    return EXIT_OK


def cmd_prooflab_ell(args) -> int:
    from . import prooflab
    from .ntkernel import NonResidueError

    e, r, limit = args.e, abs(args.r), _print_limit()
    # ell < r^e, so a printable modulus makes both values printable; past
    # 4*limit bits r^e passes 16^limit > 10^limit without being formed
    if limit and ((r.bit_length() - 1) * e >= 4 * limit or r**e >= 10**limit):
        raise _unprintable(f"{_named(args, 'r', args.r)} {_named(args, 'e', e)}: the modulus r^e", limit)
    try:
        ell = prooflab.construct_ell(args.r, e, args.n0, args.j, args.c)
    except NonResidueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INCONCLUSIVE
    payload = {"ell": ell, "modulus": r**e, "verified": True}
    _emit_record(args.format, payload)
    return EXIT_OK


def cmd_prooflab_fixedpoint(args) -> int:
    from . import prooflab

    cells = [row.split(",") for row in args.matrix.split(";")]
    rows = [[_rational(cell, f"--matrix {_clip(repr(cell))}") for cell in row] for row in cells]
    report = prooflab.fixed_point_collision(rows)
    payload = {
        "size": report.size,
        "eigenspace_dim": report.eigenspace_dim,
        "colliding_pairs": [list(p) for p in report.colliding_pairs],
        "pass": report.has_collision,
    }
    _emit_record(args.format, payload)
    return EXIT_OK if report.has_collision else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser assembly


class _Number:
    """A numeric option: each value read by `read`, a list of at most `count`
    values, a single value of at least `least` and at most `most` (errors
    call it the `bound`), and `default` with neither flag nor config value."""

    def __init__(self, least=-math.inf, most=math.inf, bound="", default=None, count=math.inf, read=_int) -> None:
        self.least, self.most, self.bound = least, most, bound
        self.default, self.count, self.read = default, count, read


_ANY = _Number()  # an integer of any value, with no default
_REQUIRED = dict(required=True)
_CURVE_POINT = (
    ("--curve", dict(nargs=2, metavar=("A", "B")), _ANY),
    ("--point", dict(nargs=3, metavar=("X", "Y", "Z")), _ANY),
    ("--curve-file", dict(help="file with 'curve A B' and 'point x y z' lines")),
)
_LRS_SOURCE = (("--lrs", dict(nargs="+", metavar="N", help="k c1..ck u1..uk"), _ANY), ("--lrs-file", {}))
_EXCLUDE = ("--exclude", dict(help="comma-separated primes to skip in the scan"))
_QAB = (("--q", _REQUIRED, _ANY), ("--a", _REQUIRED, _ANY), ("--b", _REQUIRED, _ANY))

# path -> (handler, or None for a group; help line; options as (flag, add_argument
# keywords) pairs, with a `_Number` third for an option that `_read_numbers` reads).
# A group's subcommands are listed in the order of their paths here.
COMMANDS = {
    "eds": (None, "divisibility sequence generation and analysis", ()),
    "eds gen": (cmd_eds_gen, "generate z_n from a curve and point", (
        *_CURVE_POINT, ("--n", {}, _Number(1, default=20)),
        ("--stride", dict(help="list z_(stride*n) instead of z_n"), _Number(1, default=1)), ("--cache-dir", {}),
    )),
    "eds ward": (cmd_eds_ward, "extend four seed values by the bilinear recurrences", (
        ("--seed", dict(nargs=4, required=True, metavar=("W1", "W2", "W3", "W4")), _ANY),
        ("--n", {}, _Number(1, default=10)),
    )),
    "eds period": (
        cmd_eds_period,
        "minimal period of the companion w_n modulo p; z_n = z_1*|w_n| agrees up to sign if gcd(2y, 3x^2 + a*z^4) = 1",
        (*_CURVE_POINT, ("--p", _REQUIRED, _Number(most=MAX_PERIOD_P, bound="point-count bound"))),
    ),
    "eds zsigmondy": (cmd_eds_zsigmondy, "primitive divisor scan", (
        *_CURVE_POINT, ("--n", {}, _Number(1, default=20)),
    )),
    "lrs": (None, "linear recurrence engine", ()),
    "lrs fit": (cmd_lrs_fit, "minimal integer recurrence from terms (one per line)", (
        ("--terms-file", {}), ("--bound", {}, _Number(1)),
    )),
    "lrs eval": (cmd_lrs_eval, "evaluate u_n exactly or modulo p", (
        *_LRS_SOURCE, ("--n", _REQUIRED, _Number(1)), ("--mod", {}, _Number(2)),
    )),
    "lrs decimate": (cmd_lrs_decimate, "spec for the subsequence u_(m*n)", (
        *_LRS_SOURCE, ("--m", _REQUIRED, _Number(1, MAX_DECIMATE_M, "decimation bound")),
    )),
    "lrs degenerate": (cmd_lrs_degenerate, "root-of-unity ratio detection", (
        *_LRS_SOURCE, ("--reduce", dict(action="store_true", help="also emit the decimated reduction")),
    )),
    "lrs period": (cmd_lrs_period, "minimal period modulo p", (
        *_LRS_SOURCE, ("--p", _REQUIRED, _ANY), ("--method", dict(choices=("matrix", "iteration"), default="matrix")),
        ("--squares", dict(action="store_true", help="also report the square-sampled period")),
    )),
    "density": (None, "matrix and affine densities, empirical scans", ()),
    "density gl2": (cmd_density_gl2, "exact trace/determinant density", _QAB),
    "density affine": (cmd_density_affine, "exact affine density with translation part", _QAB),
    "density empirical": (cmd_density_empirical, "prime-scan frequency beside the exact density", (
        *_CURVE_POINT, ("--q", _REQUIRED, _ANY), ("--a", {}, _ANY),
        ("--x", dict(help="prime bound"), _Number(3, default=10_000)),  # 3: the least odd prime
        ("--jobs", dict(help="worker processes for the prime scan"), _Number(1, default=1)), _EXCLUDE,
    )),
    # --q: verify fails a q above the top of the Hasse interval at refuter.MAX_WITNESS_P,
    # 1,001,997, which divides no point order the finder reaches
    "refute": (cmd_refute, "find a witness prime and write a certificate", (
        *_CURVE_POINT, *_LRS_SOURCE, ("--q", {}, _Number(most=1_001_997, bound="point-order bound")),
        ("--a", dict(help="trace target (default 3)"), _ANY),
        ("--p-max", {}, _Number(3)), ("--out", dict(help="certificate output path (default: stdout)")), _EXCLUDE,
    )),
    "verify": (cmd_verify, "re-check a certificate file from scratch", (("certificate", {}),)),
    "falsify": (cmd_falsify, "mismatch indices beyond a claimed threshold", (
        *_CURVE_POINT, *_LRS_SOURCE, ("--p", _REQUIRED, _ANY), ("--start", {}, _Number(1, default=1)),
        ("--window", {}, _Number(1, default=50)),
    )),
    "prooflab": (None, "executable lemma checks", ()),
    "prooflab qlemma": (cmd_prooflab_qlemma, "degree/leading-coefficient expansion check", (
        ("--coeffs", dict(nargs="+", required=True, help="P ascending from the constant term"),
         _Number(count=MAX_QLEMMA_COEFFS, read=_rational)),
        ("--alpha", _REQUIRED, _Number(read=_rational)),
    )),
    "prooflab det": (cmd_prooflab_det, "determinant factorization check", (
        ("--q", _REQUIRED, _ANY), ("--betas", dict(nargs="+", required=True), _Number(count=MAX_DET_BETAS)),
    )),
    "prooflab resclass": (cmd_prooflab_resclass, "admissible residue count", (
        ("--r", _REQUIRED, _Number(most=MAX_RESCLASS_R, bound="residue-count bound")), ("--t", _REQUIRED, _ANY),
        ("--c", {}, _Number(default=1)),
    )),
    "prooflab ell": (cmd_prooflab_ell, "quadratic congruence lift", (
        ("--r", _REQUIRED, _ANY), ("--e", {}, _Number(1, MAX_ELL_E, "lift bound", default=1)),
        ("--n0", _REQUIRED, _ANY), ("--j", _REQUIRED, _ANY), ("--c", _REQUIRED, _ANY),
    )),
    "prooflab fixedpoint": (cmd_prooflab_fixedpoint, "stochastic fixed-point collision check", (
        ("--matrix", dict(required=True, help="rows ';'-separated, entries ','-separated")),
    )),
}


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, asking the terminal for its width only when it
    renders help or usage text: argparse makes a formatter for every option
    it adds, and the width lookup imports shutil (with bz2, lzma and zlib)."""

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=80)  # a stand-in: both values below are read on first use
        del self._width, self._max_help_position

    @functools.cached_property
    def _width(self) -> int:
        import shutil

        return shutil.get_terminal_size().columns - 2

    @functools.cached_property
    def _max_help_position(self) -> int:
        return min(24, max(self._width - 20, self._indent_increment * 2))  # 24: argparse's default


class _Parsers(dict):
    """A subparsers action's name -> parser map that holds each name's path
    in COMMANDS and looks its parser up with `_build`, so that a group's or
    a subcommand's parser is built on its first lookup, by a parse, a
    --help or a walk of `choices`, and by no one else."""

    def __getitem__(self, name: str) -> argparse.ArgumentParser:
        return _build(super().__getitem__(name))

    def values(self) -> list[argparse.ArgumentParser]:
        return [self[name] for name in self]

    def items(self) -> list[tuple[str, argparse.ArgumentParser]]:
        return [(name, self[name]) for name in self]


def _subcommands(parser: argparse.ArgumentParser, group: str) -> None:
    """List the subcommands of `group` ("" for the top level) on the parser,
    each with its help line, and leave their parsers to be built."""
    sub = parser.add_subparsers(dest="subcommand" if group else "command", required=True)
    # argparse has no public hook for the parser map: a parse looks the
    # subcommand up in _name_parser_map, and `choices` is the same dict
    sub.choices = sub._name_parser_map = _Parsers()
    for path, (_, help_line, _) in COMMANDS.items():
        parent, _, name = path.rpartition(" ")
        if parent == group:
            # what add_parser does, but for the parser, whose build is
            # deferred: argparse lists the help line from this pseudo-action
            sub._choices_actions.append(sub._ChoicesPseudoAction(name, (), help_line))
            sub.choices[name] = path


@functools.cache
def _build(path: str) -> argparse.ArgumentParser:
    """The parser of a group, which lists its subcommands, or of a
    subcommand, which takes --config, --format and its own options; built
    on the first call for its path and shared after it, as the tree is."""
    func, _, options = COMMANDS[path]
    parser = argparse.ArgumentParser(prog=f"edslab {path}", formatter_class=_HelpFormatter)
    if func is None:  # a group, whose options are its subcommands, has no span
        _subcommands(parser, path)
        return parser
    with _span("cli.leaf", leaf=path):
        parser._negative_number_matcher = re.compile(r"^-\d")  # -1/2 is a value, as -3 is in argparse
        parser.add_argument("--config", help="key=value config file")
        parser.add_argument("--format", choices=FORMATS)
        for flag, kwargs, *_ in options:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(func=func)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it:
    parsing leaves no state on it, and building it costs far more than a
    parse.  Only the top-level parser is built here; each group's and
    subcommand's parser is built the first time it is looked up.  `main`
    runs it only for help, usage and errors (see `_parse`)."""
    parser = argparse.ArgumentParser(
        prog="edslab",
        description="elliptic divisibility sequences, linear recurrences, densities, witness certificates",
        formatter_class=_HelpFormatter,
    )
    _subcommands(parser, "")
    return parser


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command path of argv and its namespace.  When the first one or two
    words are exactly a subcommand's path, that subcommand's parser alone
    parses the rest: the tree would pass it the same words, and the levels
    above it add nothing but the command's name.  What it does not take
    whole, and argv that names no subcommand, goes to the tree, which
    prints help, usage or an error."""
    for n in (1, 2):
        path = " ".join(argv[:n])
        if argv[:n] == path.split(" ") and path in COMMANDS and COMMANDS[path][0]:
            args, rest = _build(path).parse_known_args(argv[n:])
            if not rest:
                return path, args
            break
    args = build_parser().parse_args(argv)
    return " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))), args


def main(argv=None) -> int:
    with _span("cli.parse"):
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    with _span("cli.run", command=command):
        try:
            config = _read_config(args.config) if args.config else {}
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return EXIT_VALIDATION
        # a flag wins over its config value; the rest are set as if given by flags
        args._config = {key: value for key, value in config.items() if getattr(args, key, None) is None}
        vars(args).update(args._config)
        try:
            args.format = FORMATS[0] if args.format is None else args.format
            if args.format not in FORMATS:  # only a config value can be another
                raise ValueError(f"format = {args.format} in {args.config} must be one of {', '.join(FORMATS)}")
            _read_numbers(args, COMMANDS[command][2])
            return args.func(args)
        except (ValueError, OSError) as exc:  # elliptic.InexactDivisionError is a ValueError
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
