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

CONFIG_KEYS = {
    "format",
    "cache_dir",
    "p_max",
    "q",
    "a",
    "jobs",
    "exclude",
    "bound",
    "horizon",
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
    if key in config:
        return cast(config[key]) if cast else config[key]
    return default


def _parse_exclusions(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(part) for part in text.replace(",", " ").split())


# ---------------------------------------------------------------------------
# output rendering


def _emit(fmt: str, headers: list[str], rows: list[list], json_payload=None, out=None):
    out = out or sys.stdout
    if fmt == "json":
        payload = json_payload if json_payload is not None else [
            dict(zip(headers, row)) for row in rows
        ]
        out.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
    elif fmt == "csv":
        out.write(",".join(headers) + "\n")
        for row in rows:
            out.write(",".join(str(v) for v in row) + "\n")
    else:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


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


def cmd_eds_gen(args) -> int:
    curve, point = _curve_point(args)
    n = _resolve(args, "n", 20, int)
    stride = args.stride or 1
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
    n = _resolve(args, "n", 10, int)
    seq = eds.generate_ward(seed, n)
    rows = [[i, seq.term(i)] for i in range(1, n + 1)]
    _emit(args.format, ["n", "w_n"], rows)
    if seq.degenerate_at is not None:
        sys.stderr.write(f"warning: zero term at index {seq.degenerate_at}; sequence degenerate\n")
    return EXIT_OK


def cmd_eds_period(args) -> int:
    curve, point = _curve_point(args)
    seq = eds.generate_geometric(curve, point, 8)
    horizon = _resolve(args, "horizon", None, int)
    result = eds.eds_period_mod_p(seq, args.p, horizon)
    payload = {
        "p": result.p,
        "status": result.status,
        "period": result.period,
        "rank": result.rank,
        "n_points": result.n_points,
        "trace": result.trace,
        "period_bound": result.period_bound,
        "divides_bound": result.divides_bound,
        "window": list(result.window),
    }
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
    return EXIT_OK if result.confirmed else EXIT_INCONCLUSIVE


def cmd_eds_zsigmondy(args) -> int:
    curve, point = _curve_point(args)
    n = _resolve(args, "n", 20, int)
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
    if args.mod:
        print(lrs.eval_mod(spec, args.n, args.mod))
    else:
        print(lrs.eval_exact(spec, args.n))
    return EXIT_OK


def cmd_lrs_decimate(args) -> int:
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
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
    return EXIT_OK


def cmd_lrs_period(args) -> int:
    spec = _lrs_spec(args)
    period = lrs.lrs_period_mod_p(spec, args.p, method=args.method)
    if args.squares:
        sq = lrs.square_sampled_period(spec, args.p)
        payload = {"p": args.p, "period": period, "square_sampled_period": sq.period}
    else:
        payload = {"p": args.p, "period": period}
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
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
    x = _resolve(args, "x", 10_000, int)
    a = _resolve(args, "a", refuter.DEFAULT_A_TARGET, int)
    jobs = _resolve(args, "jobs", 1, int)
    exclusions = _parse_exclusions(_resolve(args, "exclude"))
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
    _emit(fmt, list(payload), [list(payload.values())], json_payload=payload)


# ---------------------------------------------------------------------------
# refute / verify / falsify


def cmd_refute(args) -> int:
    curve, point = _curve_point(args)
    spec = _lrs_spec(args)
    q = _resolve(args, "q", None, int)
    a = _resolve(args, "a", refuter.DEFAULT_A_TARGET, int)
    p_max = _resolve(args, "p_max", 1_000_000, int)
    exclusions = _parse_exclusions(_resolve(args, "exclude"))
    result = refuter.find_witness(
        curve, point, spec, q, a_target=a, p_max=p_max, exclusions=exclusions
    )
    if not result.found:
        sys.stderr.write(f"no witness prime <= {p_max}; per-condition counts:\n")
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


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def cmd_prooflab_qlemma(args) -> int:
    poly = Poly(*[_parse_fraction(c) for c in args.coeffs])
    alpha = _parse_fraction(args.alpha)
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
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_prooflab_det(args) -> int:
    result = prooflab.det_beta_identity(args.betas, args.q)
    payload = {
        "determinant": result.determinant,
        "product": result.product,
        "sign": result.sign,
        "consistent": result.consistent,
    }
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
    return EXIT_OK if result.consistent else EXIT_VERIFY_FAILED


def cmd_prooflab_resclass(args) -> int:
    report = prooflab.count_admissible_residues(args.r, args.t, args.c)
    payload = {
        "r": report.r,
        "t": report.t,
        "c": report.c,
        "count": report.count,
        "deviation": report.deviation,
    }
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
    return EXIT_OK


def cmd_prooflab_ell(args) -> int:
    try:
        ell = prooflab.construct_ell(args.r, args.e, args.n0, args.j, args.c)
    except NonResidueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INCONCLUSIVE
    payload = {"ell": ell.value, "modulus": ell.modulus, "verified": True}
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
    return EXIT_OK


def cmd_prooflab_fixedpoint(args) -> int:
    rows = []
    for row_text in args.matrix.split(";"):
        rows.append([_parse_fraction(cell) for cell in row_text.split(",")])
    report = prooflab.fixed_point_collision(rows)
    payload = {
        "size": report.size,
        "eigenspace_dim": report.eigenspace_dim,
        "colliding_pairs": [list(p) for p in report.colliding_pairs],
        "pass": report.has_collision,
    }
    _emit(args.format, list(payload), [list(payload.values())], json_payload=payload)
    return EXIT_OK if report.has_collision else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--format", choices=("table", "json", "csv"), default=None)


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
    sp = eds_sub.add_parser("gen", help="generate z_n from a curve and point")
    _add_common(sp)
    _add_curve_point(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--stride", type=int, default=None, help="list z_(stride*n) instead of z_n")
    sp.add_argument("--cache-dir", dest="cache_dir", default=None)
    sp.set_defaults(func=cmd_eds_gen)
    sp = eds_sub.add_parser("ward", help="extend four seed values by the bilinear recurrences")
    _add_common(sp)
    sp.add_argument("--seed", nargs=4, type=int, required=True, metavar=("W1", "W2", "W3", "W4"))
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_eds_ward)
    sp = eds_sub.add_parser(
        "period",
        help="minimal period of the companion w_n modulo p; z_n = z_1*|w_n| agrees with it up to sign",
    )
    _add_common(sp)
    _add_curve_point(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--horizon", type=int, default=None)
    sp.set_defaults(func=cmd_eds_period)
    sp = eds_sub.add_parser("zsigmondy", help="primitive divisor scan")
    _add_common(sp)
    _add_curve_point(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_eds_zsigmondy)

    p_lrs = top.add_parser("lrs", help="linear recurrence engine")
    lrs_sub = p_lrs.add_subparsers(dest="subcommand", required=True)
    sp = lrs_sub.add_parser("fit", help="minimal integer recurrence from terms (one per line)")
    _add_common(sp)
    sp.add_argument("--terms-file", dest="terms_file")
    sp.add_argument("--bound", type=int, default=None)
    sp.set_defaults(func=cmd_lrs_fit)
    sp = lrs_sub.add_parser("eval", help="evaluate u_n exactly or modulo p")
    _add_common(sp)
    _add_lrs_source(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mod", type=int, default=None)
    sp.set_defaults(func=cmd_lrs_eval)
    sp = lrs_sub.add_parser("decimate", help="spec for the subsequence u_(m*n)")
    _add_common(sp)
    _add_lrs_source(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(func=cmd_lrs_decimate)
    sp = lrs_sub.add_parser("degenerate", help="root-of-unity ratio detection")
    _add_common(sp)
    _add_lrs_source(sp)
    sp.add_argument("--reduce", action="store_true", help="also emit the decimated reduction")
    sp.set_defaults(func=cmd_lrs_degenerate)
    sp = lrs_sub.add_parser("period", help="minimal period modulo p")
    _add_common(sp)
    _add_lrs_source(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--method", choices=("matrix", "iteration"), default="matrix")
    sp.add_argument("--squares", action="store_true", help="also report the square-sampled period")
    sp.set_defaults(func=cmd_lrs_period)

    p_density = top.add_parser("density", help="matrix and affine densities, empirical scans")
    den_sub = p_density.add_subparsers(dest="subcommand", required=True)
    sp = den_sub.add_parser("gl2", help="exact trace/determinant density")
    _add_common(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--linear-cap", dest="linear_cap", type=int, default=None)
    sp.set_defaults(func=cmd_density_gl2)
    sp = den_sub.add_parser("affine", help="exact affine density with translation part")
    _add_common(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--affine-cap", dest="affine_cap", type=int, default=None)
    sp.set_defaults(func=cmd_density_affine)
    sp = den_sub.add_parser("empirical", help="prime-scan frequency beside the exact density")
    _add_common(sp)
    _add_curve_point(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--x", type=int, default=None, help="prime bound")
    sp.add_argument("--jobs", type=int, default=None, help="worker processes for the prime scan")
    sp.add_argument("--exclude", default=None, help="comma-separated primes to skip in the scan")
    sp.set_defaults(func=cmd_density_empirical)

    sp = top.add_parser("refute", help="find a witness prime and write a certificate")
    _add_common(sp)
    _add_curve_point(sp)
    _add_lrs_source(sp)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--a", type=int, default=None, help="trace target (default 3)")
    sp.add_argument("--p-max", dest="p_max", type=int, default=None)
    sp.add_argument("--out", help="certificate output path (default: stdout)")
    sp.add_argument("--exclude", default=None, help="comma-separated primes to skip in the scan")
    sp.set_defaults(func=cmd_refute)

    sp = top.add_parser("verify", help="re-check a certificate file from scratch")
    _add_common(sp)
    sp.add_argument("certificate")
    sp.set_defaults(func=cmd_verify)

    sp = top.add_parser("falsify", help="mismatch indices beyond a claimed threshold")
    _add_common(sp)
    _add_curve_point(sp)
    _add_lrs_source(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--start", type=int, default=1)
    sp.add_argument("--window", type=int, default=50)
    sp.set_defaults(func=cmd_falsify)

    p_lab = top.add_parser("prooflab", help="executable lemma checks")
    lab_sub = p_lab.add_subparsers(dest="subcommand", required=True)
    sp = lab_sub.add_parser("qlemma", help="degree/leading-coefficient expansion check")
    _add_common(sp)
    sp.add_argument("--coeffs", nargs="+", required=True, help="P ascending from the constant term")
    sp.add_argument("--alpha", required=True)
    sp.set_defaults(func=cmd_prooflab_qlemma)
    sp = lab_sub.add_parser("det", help="determinant factorization check")
    _add_common(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--betas", nargs="+", type=int, required=True)
    sp.set_defaults(func=cmd_prooflab_det)
    sp = lab_sub.add_parser("resclass", help="admissible residue count")
    _add_common(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--c", type=int, default=1)
    sp.set_defaults(func=cmd_prooflab_resclass)
    sp = lab_sub.add_parser("ell", help="quadratic congruence lift")
    _add_common(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--n0", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.set_defaults(func=cmd_prooflab_ell)
    sp = lab_sub.add_parser("fixedpoint", help="stochastic fixed-point collision check")
    _add_common(sp)
    sp.add_argument("--matrix", required=True, help="rows ';'-separated, entries ','-separated")
    sp.set_defaults(func=cmd_prooflab_fixedpoint)

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
