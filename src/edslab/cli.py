"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 exhaustion or inconclusive
result, 4 verification failure.  Values come from flags, then from an
optional key=value config file, then from built-in defaults; the cache
root can also be set with the EDSLAB_CACHE environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import eds, elliptic, galois_density, lrs, prooflab, refuter
from .ntkernel import NonResidueError, Poly

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_VERIFY_FAILED = 4

CACHE_ENV = "EDSLAB_CACHE"
# largest `lrs decimate --m`: decimation generates m*(2k+8) exact terms whose
# sizes grow linearly in the index, so memory grows as m^2 (Fibonacci at
# m = 3000 peaks at 80 MB)
MAX_DECIMATE_M = 1000

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
    "linear_cap",
    "affine_cap",
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


# ---------------------------------------------------------------------------
# output rendering


def _emit(fmt: str, headers: list[str], rows: list[list], json_payload=None, out=None):
    out = out or sys.stdout
    if fmt == "json":
        payload = json_payload if json_payload is not None else [
            dict(zip(headers, row)) for row in rows
        ]
        out.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
        return
    cells = [[str(v) for v in row] for row in rows]  # int -> str is quadratic in the digits
    if fmt == "csv":
        out.write(",".join(headers) + "\n")
        for row in cells:
            out.write(",".join(row) + "\n")
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
    if getattr(args, "lrs", None):
        return lrs.parse_lrs_spec("lrs " + " ".join(str(v) for v in args.lrs))
    if getattr(args, "lrs_file", None):
        with open(args.lrs_file) as fh:
            return lrs.parse_lrs_spec(fh.read())
    raise ValueError("this command needs --lrs k c1..ck u1..uk or --lrs-file")


# ---------------------------------------------------------------------------
# eds commands


def _term_count(args, default: int) -> int:
    n = _resolve(args, "n", default, int)
    if n < 1:
        raise ValueError(f"{_named(args, 'n', n)} must be at least 1")
    return n


def cmd_eds_gen(args) -> int:
    stride = 1 if args.stride is None else args.stride
    if stride < 1:
        raise ValueError(f"--stride {stride} must be at least 1")
    n = _term_count(args, 20)
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
    seed = eds.WardSeed(*args.seed)
    n = _term_count(args, 10)
    seq = eds.generate_ward(seed, n)
    rows = [[i, seq.term(i)] for i in range(1, n + 1)]
    _emit(args.format, ["n", "w_n"], rows)
    if seq.degenerate_at is not None:
        sys.stderr.write(f"warning: zero term at index {seq.degenerate_at}; sequence degenerate\n")
    return EXIT_OK


def cmd_eds_period(args) -> int:
    curve, point = _curve_point(args)
    seq = eds.generate_geometric(curve, point, 8)
    result = eds.eds_period_mod_p(seq, args.p)
    keys = ("p", "status", "period", "rank", "n_points", "trace", "period_bound", "divides_bound")
    _emit_record(args.format, {**_fields(result, *keys), "window": list(result.window)})
    return EXIT_OK if result.confirmed else EXIT_INCONCLUSIVE


def cmd_eds_zsigmondy(args) -> int:
    n = _term_count(args, 20)
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
    spec = _lrs_spec(args)
    if args.mod is None:
        print(lrs.eval_exact(spec, args.n))
    elif args.mod < 2:
        raise ValueError(f"--mod {args.mod} must be at least 2")
    else:
        print(lrs.eval_mod(spec, args.n, args.mod))
    return EXIT_OK


def cmd_lrs_decimate(args) -> int:
    if args.m > MAX_DECIMATE_M:
        raise ValueError(f"--m {args.m} exceeds the decimation bound {MAX_DECIMATE_M}")
    spec = _lrs_spec(args)
    print(lrs.decimate(spec, args.m))
    return EXIT_OK


def cmd_lrs_degenerate(args) -> int:
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
    cap = _resolve(args, "linear_cap", galois_density.DEFAULT_LINEAR_CAP, int)
    report = galois_density.count_gl2(args.q, args.a, args.b, cap)
    _emit_density(args.format, report)
    return EXIT_OK


def cmd_density_affine(args) -> int:
    cap = _resolve(args, "affine_cap", galois_density.DEFAULT_AFFINE_CAP, int)
    report = galois_density.count_affine(args.q, args.a, args.b, cap)
    _emit_density(args.format, report)
    return EXIT_OK


def cmd_density_empirical(args) -> int:
    curve, point = _curve_point(args)
    x = _prime_bound(args, "x", 10_000)
    a = _resolve(args, "a", refuter.DEFAULT_A_TARGET, int)
    jobs = _resolve(args, "jobs", 1, int)
    exclusions = _exclusions(args)
    report = galois_density.empirical_density(curve, point, args.q, a, x, exclusions, jobs=jobs)
    _emit_density(args.format, report)
    if report.empirical.small_sample:
        sys.stderr.write("warning: fewer than 30 matching primes; the frequency is noisy\n")
    return EXIT_OK


def _emit_density(fmt: str, report: galois_density.DensityReport) -> None:
    payload = report.to_json_dict()
    if report.empirical is not None:
        payload["frequency"] = f"{report.empirical.hits}/{report.empirical.scanned}"
    payload["delta"] = f"{report.numerator}/{report.denominator}"
    _emit_record(fmt, payload)


# ---------------------------------------------------------------------------
# refute / verify / falsify


def cmd_refute(args) -> int:
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
    curve, point = _curve_point(args)
    spec = _lrs_spec(args)
    indices = refuter.direct_falsify(curve, point, spec, args.start, args.p, args.window)
    if not indices:
        print(f"no counterexample in window [{args.start}, {args.start + args.window})")
        return EXIT_INCONCLUSIVE
    print(" ".join(map(str, indices)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# prooflab commands


def cmd_prooflab_qlemma(args) -> int:
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
    result = prooflab.det_beta_identity(args.betas, args.q)
    _emit_record(args.format, _fields(result, "determinant", "product", "sign", "consistent"))
    return EXIT_OK if result.consistent else EXIT_VERIFY_FAILED


def cmd_prooflab_resclass(args) -> int:
    report = prooflab.count_admissible_residues(args.r, args.t, args.c)
    _emit_record(args.format, _fields(report, "r", "t", "c", "count", "deviation"))
    return EXIT_OK


def cmd_prooflab_ell(args) -> int:
    try:
        ell = prooflab.construct_ell(args.r, args.e, args.n0, args.j, args.c)
    except NonResidueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INCONCLUSIVE
    payload = {"ell": ell.value, "modulus": ell.modulus, "verified": True}
    _emit_record(args.format, payload)
    return EXIT_OK


def cmd_prooflab_fixedpoint(args) -> int:
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


def _leaf(sub, func, name: str, **kw) -> argparse.ArgumentParser:
    """Subcommand `name` that runs `func`, with the --config and --format
    options every subcommand takes."""
    parser = sub.add_parser(name, **kw)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--format", choices=("table", "json", "csv"), default=None)
    parser.set_defaults(func=func)
    return parser


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
    parsing leaves no state on it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="edslab",
        description="elliptic divisibility sequences, linear recurrences, densities, witness certificates",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p_eds = top.add_parser("eds", help="divisibility sequence generation and analysis")
    eds_sub = p_eds.add_subparsers(dest="subcommand", required=True)
    sp = _leaf(eds_sub, cmd_eds_gen, "gen", help="generate z_n from a curve and point")
    _add_curve_point(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--stride", type=int, default=None, help="list z_(stride*n) instead of z_n")
    sp.add_argument("--cache-dir", dest="cache_dir", default=None)
    sp = _leaf(
        eds_sub, cmd_eds_ward, "ward", help="extend four seed values by the bilinear recurrences"
    )
    sp.add_argument("--seed", nargs=4, type=int, required=True, metavar=("W1", "W2", "W3", "W4"))
    sp.add_argument("--n", type=int, default=None)
    sp = _leaf(
        eds_sub, cmd_eds_period, "period",
        help="minimal period of the companion w_n modulo p; z_n = z_1*|w_n| agrees with it up to sign",
    )
    _add_curve_point(sp)
    sp.add_argument("--p", type=int, required=True)
    sp = _leaf(eds_sub, cmd_eds_zsigmondy, "zsigmondy", help="primitive divisor scan")
    _add_curve_point(sp)
    sp.add_argument("--n", type=int, default=None)

    p_lrs = top.add_parser("lrs", help="linear recurrence engine")
    lrs_sub = p_lrs.add_subparsers(dest="subcommand", required=True)
    sp = _leaf(
        lrs_sub, cmd_lrs_fit, "fit", help="minimal integer recurrence from terms (one per line)"
    )
    sp.add_argument("--terms-file", dest="terms_file")
    sp.add_argument("--bound", type=int, default=None)
    sp = _leaf(lrs_sub, cmd_lrs_eval, "eval", help="evaluate u_n exactly or modulo p")
    _add_lrs_source(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mod", type=int, default=None)
    sp = _leaf(lrs_sub, cmd_lrs_decimate, "decimate", help="spec for the subsequence u_(m*n)")
    _add_lrs_source(sp)
    sp.add_argument("--m", type=int, required=True)
    sp = _leaf(lrs_sub, cmd_lrs_degenerate, "degenerate", help="root-of-unity ratio detection")
    _add_lrs_source(sp)
    sp.add_argument("--reduce", action="store_true", help="also emit the decimated reduction")
    sp = _leaf(lrs_sub, cmd_lrs_period, "period", help="minimal period modulo p")
    _add_lrs_source(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--method", choices=("matrix", "iteration"), default="matrix")
    sp.add_argument("--squares", action="store_true", help="also report the square-sampled period")

    p_density = top.add_parser("density", help="matrix and affine densities, empirical scans")
    den_sub = p_density.add_subparsers(dest="subcommand", required=True)
    sp = _leaf(den_sub, cmd_density_gl2, "gl2", help="exact trace/determinant density")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--linear-cap", dest="linear_cap", type=int, default=None)
    sp = _leaf(
        den_sub, cmd_density_affine, "affine", help="exact affine density with translation part"
    )
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--affine-cap", dest="affine_cap", type=int, default=None)
    sp = _leaf(
        den_sub, cmd_density_empirical, "empirical",
        help="prime-scan frequency beside the exact density",
    )
    _add_curve_point(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--x", type=int, default=None, help="prime bound")
    sp.add_argument("--jobs", type=int, default=None, help="worker processes for the prime scan")
    sp.add_argument("--exclude", default=None, help="comma-separated primes to skip in the scan")

    sp = _leaf(top, cmd_refute, "refute", help="find a witness prime and write a certificate")
    _add_curve_point(sp)
    _add_lrs_source(sp)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--a", type=int, default=None, help="trace target (default 3)")
    sp.add_argument("--p-max", dest="p_max", type=int, default=None)
    sp.add_argument("--out", help="certificate output path (default: stdout)")
    sp.add_argument("--exclude", default=None, help="comma-separated primes to skip in the scan")

    sp = _leaf(top, cmd_verify, "verify", help="re-check a certificate file from scratch")
    sp.add_argument("certificate")

    sp = _leaf(top, cmd_falsify, "falsify", help="mismatch indices beyond a claimed threshold")
    _add_curve_point(sp)
    _add_lrs_source(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--start", type=int, default=1)
    sp.add_argument("--window", type=int, default=50)

    p_lab = top.add_parser("prooflab", help="executable lemma checks")
    lab_sub = p_lab.add_subparsers(dest="subcommand", required=True)
    sp = _leaf(
        lab_sub, cmd_prooflab_qlemma, "qlemma", help="degree/leading-coefficient expansion check"
    )
    sp.add_argument("--coeffs", nargs="+", required=True, help="P ascending from the constant term")
    sp.add_argument("--alpha", required=True)
    sp = _leaf(lab_sub, cmd_prooflab_det, "det", help="determinant factorization check")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--betas", nargs="+", type=int, required=True)
    sp = _leaf(lab_sub, cmd_prooflab_resclass, "resclass", help="admissible residue count")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--c", type=int, default=1)
    sp = _leaf(lab_sub, cmd_prooflab_ell, "ell", help="quadratic congruence lift")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--n0", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp = _leaf(
        lab_sub, cmd_prooflab_fixedpoint, "fixedpoint",
        help="stochastic fixed-point collision check",
    )
    sp.add_argument("--matrix", required=True, help="rows ';'-separated, entries ','-separated")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (ValueError, OSError, eds.InexactDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
