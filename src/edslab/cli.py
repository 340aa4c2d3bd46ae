"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 exhaustion or inconclusive
result, 4 verification failure.  Values come from flags, then from an
optional key=value config file, then from built-in defaults; the cache
root can also be set with the EDSLAB_CACHE environment variable.
EDSLAB_TRACE=1 writes a trace of the run to stderr (see edslab.obs).

Each command imports the library modules it calls when it runs, so that
importing this module and building the parser loads none of them; and it
builds only its own subcommand's parser.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_VERIFY_FAILED = 4

CACHE_ENV = "EDSLAB_CACHE"
TRACE_ENV = "EDSLAB_TRACE"  # obs.ENV, named here so that a run without tracing never imports obs
# read once, at import, as obs reads it: a span of a run without tracing costs one test of this flag
_TRACING = os.environ.get(TRACE_ENV) == "1"
_UNTRACED = contextlib.nullcontext()
# largest `lrs decimate --m`: decimation generates m*(2k+8) exact terms whose
# sizes grow linearly in the index, so memory grows as m^2 (Fibonacci at
# m = 3000 peaks at 80 MB)
MAX_DECIMATE_M = 1000
# largest `eds gen --n * --stride` and `eds zsigmondy --n`: generating z_1..z_N
# takes time that grows about 16x per doubling of N; on (-4,4), (1,1,1), 800
# terms took 5.6 s (21 MB traced peak) and 1,000 took 14 s on a shared 2-core
# machine under Python 3.11, and z_N passes the table's 4,300-digit int-to-str
# limit at N = 175
MAX_EDS_TERMS = 1000

CONFIG_KEYS = {
    "format",
    "cache_dir",
    "p_max",
    "q",
    "a",
    "jobs",
    "exclude",
    "bound",
    "n",
    "x",
}


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _resolve(args, key: str, default=None, cast=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    config = getattr(args, "_config", {})
    if key not in config:
        return default
    if cast is None:
        return config[key]
    try:
        return cast(config[key])
    except ValueError:
        raise ValueError(f"{key} = {config[key]} in {args.config} must be an integer") from None


def _named(args, key: str, value) -> str:
    """The value as an error names it: by its flag if one was given, else by
    its key in the config file."""
    if getattr(args, key, None) is not None:
        return f"--{key.replace('_', '-')} {value}"
    return f"{key} = {value} in {args.config}"


def _exclusions(args) -> tuple[int, ...]:
    text = _resolve(args, "exclude")
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        named = _named(args, "exclude", repr(text))
        raise ValueError(f"{named} must list integers, separated by commas") from None


def _prime_bound(args, key: str, default: int) -> int:
    """A prime bound of at least 3, the least that can hold an odd prime."""
    bound = _resolve(args, key, default, int)
    if bound < 3:
        raise ValueError(f"{_named(args, key, bound)} must be at least 3")
    return bound


def _at_least_one(args, key: str, default: int) -> int:
    """A count or size option of at least 1."""
    value = _resolve(args, key, default, int)
    if value < 1:
        raise ValueError(f"{_named(args, key, value)} must be at least 1")
    return value


# ---------------------------------------------------------------------------
# output rendering


def _emit(fmt: str, headers: list[str], rows: list[list], json_payload=None, out=None):
    out = out or sys.stdout
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

    curve = point = None
    if getattr(args, "curve_file", None):
        with open(args.curve_file) as fh:
            for line in fh:
                stripped = line.split("#", 1)[0].strip()
                if stripped.startswith("curve"):
                    curve = elliptic.parse_curve(stripped)
                elif stripped.startswith("point"):
                    point = elliptic.parse_point(stripped)
    if args.curve is not None:
        curve = elliptic.CurveQ(args.curve[0], args.curve[1])
    if args.point is not None:
        point = elliptic.PointQ(args.point[0], args.point[1], args.point[2])
    if curve is None or point is None:
        raise ValueError("this command needs --curve A B and --point x y z (or --curve-file)")
    if not curve.contains(point):
        raise ValueError("the point is not on the curve")
    return curve, point


def _lrs_spec(args) -> lrs.LrsSpec:
    from . import lrs

    if getattr(args, "lrs", None):
        return lrs.parse_lrs_spec("lrs " + " ".join(str(v) for v in args.lrs))
    if getattr(args, "lrs_file", None):
        with open(args.lrs_file) as fh:
            return lrs.parse_lrs_spec(fh.read())
    raise ValueError("this command needs --lrs k c1..ck u1..uk or --lrs-file")


# ---------------------------------------------------------------------------
# eds commands


def cmd_eds_gen(args) -> int:
    from . import eds, elliptic

    stride = _at_least_one(args, "stride", 1)
    n = _at_least_one(args, "n", 20)
    if n * stride > MAX_EDS_TERMS:
        named = " times ".join(
            _named(args, key, value)
            for key, value in (("n", n), ("stride", stride))
            if getattr(args, key) is not None or key in args._config
        )
        raise ValueError(f"{named} asks for {n * stride} terms, more than the bound {MAX_EDS_TERMS}")
    curve, point = _curve_point(args)
    cache = _resolve(args, "cache_dir", os.environ.get(CACHE_ENV))
    seq = None
    if cache:
        seq = eds.load_sequence(cache, curve, point, n * stride)
    if seq is None:
        seq = eds.generate_geometric(curve, point, n * stride)
        if cache:
            eds.save_sequence(cache, seq)
    rows = []
    for i in range(1, n + 1):
        idx = i * stride
        z = seq.term(idx)
        c = elliptic.log_bigint(z) / idx**2 if z > 1 else 0.0
        rows.append([idx, z, f"{c:.6f}"])
    _emit(args.format, ["n", "z_n", "log(z_n)/n^2"], rows)
    return EXIT_OK


def cmd_eds_ward(args) -> int:
    from . import eds

    seed = eds.WardSeed(*args.seed)
    n = _at_least_one(args, "n", 10)
    seq = eds.generate_ward(seed, n)
    rows = [[i, seq.term(i)] for i in range(1, n + 1)]
    _emit(args.format, ["n", "w_n"], rows)
    if seq.degenerate_at is not None:
        sys.stderr.write(f"warning: zero term at index {seq.degenerate_at}; sequence degenerate\n")
    return EXIT_OK


def cmd_eds_period(args) -> int:
    from . import eds

    curve, point = _curve_point(args)
    seq = eds.generate_geometric(curve, point, 8)
    result = eds.eds_period_mod_p(seq, args.p)
    keys = ("p", "status", "period", "rank", "n_points", "trace", "period_bound", "divides_bound")
    _emit_record(args.format, {**_fields(result, *keys), "window": list(result.window)})
    return EXIT_OK if result.confirmed else EXIT_INCONCLUSIVE


def cmd_eds_zsigmondy(args) -> int:
    from . import eds

    n = _at_least_one(args, "n", 20)
    if n > MAX_EDS_TERMS:
        raise ValueError(f"{_named(args, 'n', n)} asks for {n} terms, more than the bound {MAX_EDS_TERMS}")
    curve, point = _curve_point(args)
    seq = eds.generate_geometric(curve, point, n)
    reports = eds.primitive_divisor_scan(seq)
    rows = [
        [
            r.n,
            r.primitive_part,
            " ".join(map(str, r.primes)) or "-",
            "yes" if r.has_primitive else "no",
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

    if args.terms_file:
        with open(args.terms_file) as fh:
            terms = lrs.parse_terms(fh)
    else:
        terms = lrs.parse_terms(sys.stdin)
    bound = _resolve(args, "bound", lrs.DEFAULT_FIT_BOUND, int)
    fit = lrs.fit_minimal_recurrence(terms, bound)
    for order, coeffs in fit.fatou_violations:
        sys.stderr.write(
            f"note: order {order} fits with non-integer coefficients {[str(c) for c in coeffs]}\n"
        )
    if not fit.ok:
        sys.stderr.write(f"no integer recurrence of order <= {bound} fits the {len(terms)} terms\n")
        return EXIT_INCONCLUSIVE
    print(fit.spec)
    return EXIT_OK


def cmd_lrs_eval(args) -> int:
    from . import lrs

    spec = _lrs_spec(args)
    if args.mod is None:
        print(lrs.eval_exact(spec, args.n))
    elif args.mod < 2:
        raise ValueError(f"--mod {args.mod} must be at least 2")
    else:
        print(lrs.eval_mod(spec, args.n, args.mod))
    return EXIT_OK


def cmd_lrs_decimate(args) -> int:
    from . import lrs

    if args.m > MAX_DECIMATE_M:
        raise ValueError(f"--m {args.m} exceeds the decimation bound {MAX_DECIMATE_M}")
    spec = _lrs_spec(args)
    print(lrs.decimate(spec, args.m))
    return EXIT_OK


def cmd_lrs_degenerate(args) -> int:
    from . import lrs

    spec = _lrs_spec(args)
    verdict, order = lrs.is_degenerate(spec)
    payload = {"degenerate": verdict, "witness_order": order}
    if args.reduce and verdict:
        m, reduced = lrs.nondegenerate_reduction(spec)
        payload["reduction_m"] = m
        payload["reduced"] = str(reduced)
    _emit_record(args.format, payload)
    return EXIT_OK


def cmd_lrs_period(args) -> int:
    from . import lrs

    spec = _lrs_spec(args)
    period = lrs.lrs_period_mod_p(spec, args.p, method=args.method)
    payload = {"p": args.p, "period": period}
    if args.squares:
        payload["square_sampled_period"] = lrs.square_sampled_period(spec, args.p).period
    _emit_record(args.format, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# density commands


def cmd_density_gl2(args) -> int:
    from . import galois_density

    report = galois_density.count_gl2(args.q, args.a, args.b)
    _emit_density(args.format, report)
    return EXIT_OK


def cmd_density_affine(args) -> int:
    from . import galois_density

    report = galois_density.count_affine(args.q, args.a, args.b)
    _emit_density(args.format, report)
    return EXIT_OK


def cmd_density_empirical(args) -> int:
    from . import elliptic, galois_density

    curve, point = _curve_point(args)
    x = _prime_bound(args, "x", 10_000)
    a = _resolve(args, "a", elliptic.DEFAULT_A_TARGET, int)
    jobs = _at_least_one(args, "jobs", 1)
    exclusions = _exclusions(args)
    report = galois_density.empirical_density(curve, point, args.q, a, x, exclusions, jobs=jobs)
    _emit_density(args.format, report)
    if report.empirical.small_sample:
        sys.stderr.write("warning: fewer than 30 matching primes; the frequency is noisy\n")
    return EXIT_OK


def _emit_density(fmt: str, report: galois_density.DensityReport) -> None:
    payload = report.to_json_dict()
    scan = payload.pop("empirical", None)
    if scan is not None:
        if fmt == "json":
            payload["empirical"] = scan
        else:  # a table or CSV cell holds one value: flat x, hits, scanned
            payload.update(scan)
        payload["frequency"] = f"{scan['hits']}/{scan['scanned']}"
    payload["delta"] = f"{report.numerator}/{report.denominator}"
    _emit_record(fmt, payload)


# ---------------------------------------------------------------------------
# refute / verify / falsify


def cmd_refute(args) -> int:
    from . import refuter

    curve, point = _curve_point(args)
    spec = _lrs_spec(args)
    q = _resolve(args, "q", None, int)
    a = _resolve(args, "a", refuter.DEFAULT_A_TARGET, int)
    p_max = _prime_bound(args, "p_max", 1_000_000)
    exclusions = _exclusions(args)
    result = refuter.find_witness(
        curve, point, spec, q, a_target=a, p_max=p_max, exclusions=exclusions
    )
    if not result.found:
        bound = min(p_max, refuter.MAX_WITNESS_P)
        sys.stderr.write(f"no witness prime <= {bound}; per-condition counts:\n")
        for key, value in sorted(result.stats.items()):
            sys.stderr.write(f"  {key}: {value}\n")
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
    from . import refuter

    with open(args.certificate) as fh:
        cert = refuter.WitnessCertificate.from_json(fh.read())
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

    start = _at_least_one(args, "start", 1)
    window = _at_least_one(args, "window", 50)
    curve, point = _curve_point(args)
    spec = _lrs_spec(args)
    indices = refuter.direct_falsify(curve, point, spec, start, args.p, window)
    if not indices:
        print(f"no counterexample in window [{start}, {start + window})")
        return EXIT_INCONCLUSIVE
    print(" ".join(map(str, indices)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# prooflab commands


def cmd_prooflab_qlemma(args) -> int:
    from fractions import Fraction

    from . import prooflab
    from .ntkernel import Poly

    poly = Poly(*[Fraction(c) for c in args.coeffs])
    alpha = Fraction(args.alpha)
    result = prooflab.expand_q(poly, alpha)
    degree, leading = prooflab.q_lemma_prediction(poly, alpha)
    ok = result.degree == degree and result.leading == leading
    payload = {
        "degree": result.degree,
        "predicted_degree": degree,
        "leading": str(result.leading),
        "predicted_leading": str(leading),
        "pass": ok,
    }
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

    try:
        ell = prooflab.construct_ell(args.r, args.e, args.n0, args.j, args.c)
    except NonResidueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INCONCLUSIVE
    payload = {"ell": ell.value, "modulus": ell.modulus, "verified": True}
    _emit_record(args.format, payload)
    return EXIT_OK


def cmd_prooflab_fixedpoint(args) -> int:
    from fractions import Fraction

    from . import prooflab

    rows = [[Fraction(cell) for cell in row.split(",")] for row in args.matrix.split(";")]
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
    """A subparsers action's name -> parser map that builds a subcommand's
    parser on its first lookup; until then the value is the function that
    builds it."""

    def __getitem__(self, name: str) -> argparse.ArgumentParser:
        parser = super().__getitem__(name)
        if not isinstance(parser, argparse.ArgumentParser):
            parser = self[name] = parser()
        return parser

    def values(self) -> list[argparse.ArgumentParser]:
        return [self[name] for name in self]

    def items(self) -> list[tuple[str, argparse.ArgumentParser]]:
        return [(name, self[name]) for name in self]


def _subcommands(parser: argparse.ArgumentParser, dest: str) -> argparse._SubParsersAction:
    sub = parser.add_subparsers(dest=dest, required=True)
    # argparse has no public hook for the parser map: a parse looks the
    # subcommand up in _name_parser_map, and `choices` is the same dict
    sub.choices = sub._name_parser_map = _Parsers()
    return sub


def _group(sub: argparse._SubParsersAction, name: str, help: str) -> argparse._SubParsersAction:
    """Subcommand group `name`, built now; returns its subcommands."""
    return _subcommands(sub.add_parser(name, help=help, formatter_class=_HelpFormatter), "subcommand")


def _leaf(sub: argparse._SubParsersAction, name: str, func, help: str):
    """Register subcommand `name`, with its help line, to run `func`.  The
    decorated function adds the subcommand's own options to its parser,
    after the --config and --format options every subcommand takes; the
    parser is built when it is first looked up, by a parse, a --help or a
    walk of `choices`."""
    prog = f"{sub._prog_prefix} {name}"  # the prog add_parser would give it

    def register(add_options):
        def build() -> argparse.ArgumentParser:
            with _span("cli.leaf", leaf=prog.split(" ", 1)[1]):
                parser = argparse.ArgumentParser(prog=prog, formatter_class=_HelpFormatter)
                parser.add_argument("--config", help="key=value config file")
                parser.add_argument("--format", choices=("table", "json", "csv"), default=None)
                add_options(parser)
                parser.set_defaults(func=func)
            return parser

        # what add_parser does, but for the parser, whose build is deferred:
        # argparse lists the help line from this pseudo-action
        sub._choices_actions.append(sub._ChoicesPseudoAction(name, (), help))
        sub.choices[name] = build
        return add_options

    return register


def _add_curve_point(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--curve", nargs=2, type=int, metavar=("A", "B"))
    parser.add_argument("--point", nargs=3, type=int, metavar=("X", "Y", "Z"))
    parser.add_argument(
        "--curve-file",
        dest="curve_file",
        help="file with 'curve A B' and 'point x y z' lines",
    )


def _add_lrs_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lrs", nargs="+", type=int, metavar="N", help="k c1..ck u1..uk")
    parser.add_argument("--lrs-file", dest="lrs_file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it:
    parsing leaves no state on it, and building it costs far more than a
    parse.  Only the top-level and group parsers are built here; each
    subcommand's parser is built the first time it is looked up."""
    parser = argparse.ArgumentParser(
        prog="edslab",
        description="elliptic divisibility sequences, linear recurrences, densities, witness certificates",
        formatter_class=_HelpFormatter,
    )
    top = _subcommands(parser, "command")

    eds_sub = _group(top, "eds", "divisibility sequence generation and analysis")

    @_leaf(eds_sub, "gen", cmd_eds_gen, "generate z_n from a curve and point")
    def _(sp):
        _add_curve_point(sp)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--stride", type=int, default=None, help="list z_(stride*n) instead of z_n")
        sp.add_argument("--cache-dir", dest="cache_dir", default=None)

    @_leaf(eds_sub, "ward", cmd_eds_ward, "extend four seed values by the bilinear recurrences")
    def _(sp):
        sp.add_argument("--seed", nargs=4, type=int, required=True, metavar=("W1", "W2", "W3", "W4"))
        sp.add_argument("--n", type=int, default=None)

    @_leaf(
        eds_sub, "period", cmd_eds_period,
        "minimal period of the companion w_n modulo p; z_n = z_1*|w_n| agrees with it up to sign",
    )
    def _(sp):
        _add_curve_point(sp)
        sp.add_argument("--p", type=int, required=True)

    @_leaf(eds_sub, "zsigmondy", cmd_eds_zsigmondy, "primitive divisor scan")
    def _(sp):
        _add_curve_point(sp)
        sp.add_argument("--n", type=int, default=None)

    lrs_sub = _group(top, "lrs", "linear recurrence engine")

    @_leaf(lrs_sub, "fit", cmd_lrs_fit, "minimal integer recurrence from terms (one per line)")
    def _(sp):
        sp.add_argument("--terms-file", dest="terms_file")
        sp.add_argument("--bound", type=int, default=None)

    @_leaf(lrs_sub, "eval", cmd_lrs_eval, "evaluate u_n exactly or modulo p")
    def _(sp):
        _add_lrs_source(sp)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--mod", type=int, default=None)

    @_leaf(lrs_sub, "decimate", cmd_lrs_decimate, "spec for the subsequence u_(m*n)")
    def _(sp):
        _add_lrs_source(sp)
        sp.add_argument("--m", type=int, required=True)

    @_leaf(lrs_sub, "degenerate", cmd_lrs_degenerate, "root-of-unity ratio detection")
    def _(sp):
        _add_lrs_source(sp)
        sp.add_argument("--reduce", action="store_true", help="also emit the decimated reduction")

    @_leaf(lrs_sub, "period", cmd_lrs_period, "minimal period modulo p")
    def _(sp):
        _add_lrs_source(sp)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--method", choices=("matrix", "iteration"), default="matrix")
        sp.add_argument("--squares", action="store_true", help="also report the square-sampled period")

    den_sub = _group(top, "density", "matrix and affine densities, empirical scans")

    @_leaf(den_sub, "gl2", cmd_density_gl2, "exact trace/determinant density")
    def _(sp):
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--a", type=int, required=True)
        sp.add_argument("--b", type=int, required=True)

    @_leaf(den_sub, "affine", cmd_density_affine, "exact affine density with translation part")
    def _(sp):
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--a", type=int, required=True)
        sp.add_argument("--b", type=int, required=True)

    @_leaf(den_sub, "empirical", cmd_density_empirical, "prime-scan frequency beside the exact density")
    def _(sp):
        _add_curve_point(sp)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--a", type=int, default=None)
        sp.add_argument("--x", type=int, default=None, help="prime bound")
        sp.add_argument("--jobs", type=int, default=None, help="worker processes for the prime scan")
        sp.add_argument("--exclude", default=None, help="comma-separated primes to skip in the scan")

    @_leaf(top, "refute", cmd_refute, "find a witness prime and write a certificate")
    def _(sp):
        _add_curve_point(sp)
        _add_lrs_source(sp)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--a", type=int, default=None, help="trace target (default 3)")
        sp.add_argument("--p-max", dest="p_max", type=int, default=None)
        sp.add_argument("--out", help="certificate output path (default: stdout)")
        sp.add_argument("--exclude", default=None, help="comma-separated primes to skip in the scan")

    @_leaf(top, "verify", cmd_verify, "re-check a certificate file from scratch")
    def _(sp):
        sp.add_argument("certificate")

    @_leaf(top, "falsify", cmd_falsify, "mismatch indices beyond a claimed threshold")
    def _(sp):
        _add_curve_point(sp)
        _add_lrs_source(sp)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--start", type=int, default=1)
        sp.add_argument("--window", type=int, default=50)

    lab_sub = _group(top, "prooflab", "executable lemma checks")

    @_leaf(lab_sub, "qlemma", cmd_prooflab_qlemma, "degree/leading-coefficient expansion check")
    def _(sp):
        sp.add_argument("--coeffs", nargs="+", required=True, help="P ascending from the constant term")
        sp.add_argument("--alpha", required=True)

    @_leaf(lab_sub, "det", cmd_prooflab_det, "determinant factorization check")
    def _(sp):
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--betas", nargs="+", type=int, required=True)

    @_leaf(lab_sub, "resclass", cmd_prooflab_resclass, "admissible residue count")
    def _(sp):
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--t", type=int, required=True)
        sp.add_argument("--c", type=int, default=1)

    @_leaf(lab_sub, "ell", cmd_prooflab_ell, "quadratic congruence lift")
    def _(sp):
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--e", type=int, default=1)
        sp.add_argument("--n0", type=int, required=True)
        sp.add_argument("--j", type=int, required=True)
        sp.add_argument("--c", type=int, required=True)

    @_leaf(lab_sub, "fixedpoint", cmd_prooflab_fixedpoint, "stochastic fixed-point collision check")
    def _(sp):
        sp.add_argument("--matrix", required=True, help="rows ';'-separated, entries ','-separated")

    return parser


def _span(name: str, **fields):
    """`obs.span(name, **fields)` when EDSLAB_TRACE=1.  Otherwise it costs
    one flag test, and neither edslab.obs nor the json it writes is loaded."""
    if not _TRACING:
        return _UNTRACED
    from . import obs

    return obs.span(name, **fields)


def main(argv=None) -> int:
    with _span("cli.parse"):
        args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    with _span("cli.run", command=command):
        config: dict[str, str] = {}
        if getattr(args, "config", None):
            try:
                config = _read_config(args.config)
            except (OSError, ValueError) as exc:
                sys.stderr.write(f"config error: {exc}\n")
                return EXIT_VALIDATION
        args._config = config
        if getattr(args, "format", None) is None:
            args.format = config.get("format", "table")
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:  # eds.InexactDivisionError is a ValueError
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
