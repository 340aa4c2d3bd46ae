import csv
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import pytest

import edslab
from edslab import cli, eds, lrs, ntkernel, prooflab, refuter
from edslab.cli import build_parser, main
from edslab.elliptic import NAIVE_COUNT_BELOW, CurveQ, PointQ
from edslab.lrs import FIBONACCI


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eds_gen_table(capsys):
    code, out, _ = run(capsys, "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split()[:2] == ["1", "1"]
    assert lines[2].split()[:2] == ["2", "4"]


def test_eds_gen_stride(capsys):
    code, out, _ = run(
        capsys,
        "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--n", "3", "--stride", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["2", "4", "6"]


def test_eds_gen_ratio_column_is_pinned_past_512_and_1024_bits(capsys):
    # n: (bits of z_n, log(z_n)/n^2 as printed), across 512 and 1,024 bits
    pinned = {
        1: (1, "0.000000"),
        2: (2, "0.173287"),
        33: (506, "0.321629"),
        34: (537, "0.321610"),
        47: (1025, "0.321376"),
        48: (1071, "0.321957"),
    }
    tail = {60: "0.322005", 100: "0.322082", 120: "0.322091"}
    argv = ("eds", "gen", "--curve", "-4", "4", "--point", "1", "1", "1", "--n", "120", "--format", "csv")
    code, out, _ = run(capsys, *argv)
    rows = {int(n): (int(z).bit_length(), ratio) for n, z, ratio in list(csv.reader(out.splitlines()))[1:]}
    assert code == 0 and len(rows) == 120
    assert {n: rows[n] for n in pinned} == pinned
    assert {n: rows[n][1] for n in tail} == tail


@pytest.mark.parametrize("stride", ["0", "-2"])
def test_eds_gen_refuses_a_stride_below_one(capsys, stride):
    # stride 0 listed stride 1; -2 failed with "need at least one term"
    code, out, err = run(capsys, "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--stride", stride)
    assert code == 2 and out == ""
    assert f"--stride {stride}" in err


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--cache-dir", "."),
        ("eds", "zsigmondy", "--curve", "0", "3", "--point", "1", "2", "1"),
        ("eds", "ward", "--seed", "1", "1", "-1", "1"),
    ],
    ids=["gen", "zsigmondy", "ward"],
)
def test_term_count_below_one_exit2_before_any_work(capsys, monkeypatch, argv, n):
    # these failed with "need at least one term", which names no option
    for name in ("load_sequence", "generate_geometric", "generate_ward"):
        monkeypatch.setattr(eds, name, _refuse)
    assert run(capsys, *argv, "--n", n) == (2, "", f"error: --n {n} must be at least 1\n")


LRS_EVAL = ("lrs", "eval", "--lrs", "2", "1", "1", "0", "1", "--n", "10")
LRS_SQUARES = ("lrs", "period", "--lrs", "2", "3", "1", "1", "2", "--p", "10067", "--squares")  # lambda = 20,136


def _python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter, run with these arguments, that imports edslab from src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, **env},
        check=True,
    )


def _modules_after(*argv):
    """sys.modules of a fresh interpreter after importing the CLI, building its
    parser and, if argv is given, running that command.  -S keeps
    site-packages hooks from importing anything first."""
    probe = (
        "import contextlib, io, sys, edslab.cli\n"
        "edslab.cli.build_parser()\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert edslab.cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted(sys.modules))\n"
    )
    return set(_python("-S", "-c", probe, *argv).stdout.split())


def _library(modules):
    return {m for m in modules if m.split(".")[0] == "edslab"}


def test_importing_the_cli_loads_no_cache_modules():
    # _blake2 and tempfile are loaded by the cache functions only, and hashlib
    # (which loads OpenSSL) by none; each library module, and the dataclasses,
    # fractions and json it needs, by the first command that runs it;
    # shutil (with bz2, lzma and zlib) by the first help or usage text rendered
    loaded = _modules_after()
    modules = {"hashlib", "_blake2", "tempfile", "dataclasses", "fractions", "decimal", "inspect", "json", "shutil"}
    assert not modules & loaded
    assert _library(loaded) == {"edslab", "edslab.cli"}


def test_lrs_eval_loads_only_the_recurrence_modules():
    loaded = _modules_after(*LRS_EVAL)
    assert _library(loaded) == {"edslab", "edslab.cli", "edslab.lrs", "edslab.ntkernel"}
    assert not {"shutil", "json", "array"} & loaded  # array, a C extension, only for square-sampled periods


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("density", "gl2", "--q", "7", "--a", "1", "--b", "2"), {"refuter", "eds", "lrs"}),
        (
            ("density", "empirical", "--curve", "-4", "4", "--point", "1", "1", "1", "--q", "5", "--x", "200"),
            {"refuter", "eds", "lrs"},
        ),
        (("prooflab", "det", "--q", "7", "--betas", "2", "3"), {"elliptic", "eds", "refuter"}),
    ],
    ids=["density-gl2", "density-empirical", "prooflab-det"],
)
def test_a_command_loads_none_of_the_modules_it_does_not_run(argv, absent):
    assert not {f"edslab.{m}" for m in absent} & _modules_after(*argv)


def test_eds_gen_uses_cache(tmp_path, capsys):
    args = ("eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--n", "6",
            "--cache-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert list(tmp_path.glob("*.eds"))
    code, out2, _ = run(capsys, *args)
    assert code == 0 and out1 == out2


def test_the_sequence_cache_loads_no_openssl(tmp_path):
    loaded = _modules_after("eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--cache-dir", str(tmp_path))
    assert list(tmp_path.glob("*.eds")) and "_blake2" in loaded
    assert not {"hashlib", "_hashlib"} & loaded


def test_traced_eds_gen_names_each_cache_miss(tmp_path):
    command = ("-c", "import sys, edslab.cli; sys.exit(edslab.cli.main(sys.argv[1:]))")
    gen = ("eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--cache-dir", str(tmp_path))
    records = []
    for n in ("6", "4", "9"):
        stderr = _python(*command, *gen, "--n", n, EDSLAB_TRACE="1").stderr
        [record] = [r for r in map(json.loads, stderr.splitlines()) if r.get("span") == "eds.load_sequence"]
        assert record["parent"] == "cli.run" and record["n_terms"] == int(n)
        records.append((record["hit"], record["miss"]))
    assert records == [(False, "absent"), (True, None), (False, "short")]


def test_traced_density_scan_counts_every_prime_once():
    # x = 3000 holds 430 primes; --jobs 2 scans two ranges, and the parent writes the one span
    command = ("-c", "import sys, edslab.cli; sys.exit(edslab.cli.main(sys.argv[1:]))")
    for jobs in ("1", "2"):
        run = _python(*command, *EMPIRICAL, "--x", "3000", "--exclude", "7", "--jobs", jobs, "--format", "json",
                      EDSLAB_TRACE="1")
        [span] = [r for r in map(json.loads, run.stderr.splitlines()) if r.get("span") == "galois_density.scan"]
        assert span["parent"] == "cli.run" and (span["x"], span["q"], span["base"]) == (3000, 3, "rational")
        counts = [span[key] for key in ("excluded", "bad", "residue_class", "order", "hits")]
        assert sum(counts) == span["primes"] == 430 and span["excluded"] == 3  # 2, 3 and 7
        scan = json.loads(run.stdout)["empirical"]
        assert span["primes"] - span["excluded"] - span["bad"] == scan["scanned"] and span["hits"] == scan["hits"]


def test_untraced_density_scan_loads_no_tracing():
    loaded = _modules_after(*EMPIRICAL, "--x", "300", "--format", "table")
    assert "edslab.galois_density" in loaded and "json" not in loaded


def test_untraced_square_period_loads_no_tracing():
    loaded = _modules_after(*LRS_SQUARES)
    assert "edslab.lrs" in loaded and "json" not in loaded


def _no_writer(name, fields):
    raise AssertionError(f"span {name} written with tracing off")


def test_untraced_commands_never_reach_the_span_writer(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(edslab, "_TRACING", False)
    monkeypatch.setattr(edslab, "_write_span", _no_writer)
    cert = tmp_path / "cert.json"
    commands = [
        (*REFUTE, "--out", str(cert)),
        ("verify", str(cert)),
        ("eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--cache-dir", str(tmp_path)),
        LRS_SQUARES,
        (*EMPIRICAL, "--x", "300"),
    ]
    assert [run(capsys, *argv)[0] for argv in commands] == [0] * len(commands)


def test_traced_eds_period_generates_one_term(monkeypatch, capsys):
    # the period reads the curve and the point, not the terms: one term checks the point
    monkeypatch.setattr(edslab, "_TRACING", True)
    argv = ("eds", "period", "--curve", "0", "3", "--point", "1", "2", "1", "--p", "1009", "--format", "json")
    code, out, err = run(capsys, *argv)
    [gen] = [r for r in map(json.loads, err.splitlines()) if r["span"] == "eds.generate_geometric"]
    assert code == 0 and json.loads(out)["period"] == 17_064
    assert (gen["parent"], gen["path"], gen["terms"]) == ("cli.run", "ayad", 1)


def test_traced_square_period_writes_one_walk_span():
    command = ("-c", "import sys, edslab.cli; sys.exit(edslab.cli.main(sys.argv[1:]))")
    run = _python(*command, *LRS_SQUARES, "--format", "json", EDSLAB_TRACE="1")
    [walk] = [r for r in map(json.loads, run.stderr.splitlines()) if r.get("span") == "lrs.walk"]
    assert walk["parent"] == "cli.run" and (walk["p"], walk["order"]) == (10067, 2)
    assert walk["period"] == json.loads(run.stdout)["period"] == 20136
    # chunks of 64, 80, 100, ..., 4,385 terms: the 20th ends 1,560 terms past the period
    assert (walk["chunks"], walk["terms"]) == (20, 21696)


def test_traced_refute_names_the_path_of_each_point_count():
    command = ("-c", "import sys, edslab.cli; sys.exit(edslab.cli.main(sys.argv[1:]))")
    records = list(map(json.loads, _python(*command, *REFUTE, EDSLAB_TRACE="1").stderr.splitlines()))
    counts = [r for r in records if r.get("span") == "elliptic.count_points"]
    assert counts and all(r["parent"] == "refuter.scan" for r in counts)
    small = ("naive", "small_p")
    assert all((r["path"], r["reason"]) == (small if r["p"] < NAIVE_COUNT_BELOW else ("mestre", None)) for r in counts)


Z87 = ("eds", "gen", "--curve", "8", "3", "--point", "13", "48", "1", "--n", "87")  # z_87 has 4,398 digits
PRINT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")


@PRINT_LIMIT
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_eds_gen_names_the_term_past_the_print_limit(tmp_path, capsys, monkeypatch, fmt):
    # the check runs before any row is built: no z_i is converted to a string
    monkeypatch.setattr(eds, "height_ratio", _refuse)
    code, out, err = run(capsys, *Z87, "--format", fmt, "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: z_87 has more than 4300 digits, the int-to-str limit (PYTHONINTMAXSTRDIGITS)\n"
    assert eds.load_sequence(str(tmp_path), CurveQ(8, 3), PointQ(13, 48, 1), 87) is not None


@PRINT_LIMIT
def test_eds_gen_prints_a_term_past_the_default_limit_when_it_is_raised(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, _ = run(capsys, *Z87, "--format", "csv")
    finally:
        sys.set_int_max_str_digits(limit)
    rows = list(csv.reader(out.splitlines()))[1:]
    assert code == 0 and [int(r[0]) for r in rows] == list(range(1, 88))
    assert len(rows[-1][1]) == 4398


def _parsers_built(*argvs) -> list[str]:
    """In a fresh interpreter: the progs of the parsers that build_parser()
    builds, then of those that each command in argvs builds, in turn; one
    comma-separated line for each."""
    probe = (
        "import argparse, contextlib, io, sys, edslab.cli\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    init(self, *args, **kwargs)\n"
        "    built.append(self.prog)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "edslab.cli.build_parser()\n"
        "print(*built, sep=',')\n"
        "for argv in sys.argv[1:]:\n"
        "    before = len(built)\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "        assert edslab.cli.main(argv.split()) == 0\n"
        "    print(*built[before:], sep=',')\n"
    )
    return _python("-c", probe, *map(" ".join, argvs)).stdout.splitlines()


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    # build_parser() builds the top-level parser alone; a command builds its
    # group's parser and its own, once
    assert _parsers_built(LRS_EVAL, LRS_EVAL) == ["edslab", "edslab lrs,edslab lrs eval", ""]

    assert build_parser() is build_parser()
    lrs_args = ("lrs", "period", "--lrs", "2", "1", "1", "1", "1", "--p", "5")
    code, out, _ = run(capsys, *lrs_args, "--squares", "--format", "json")
    assert code == 0 and json.loads(out) == {"p": 5, "period": 20, "square_sampled_period": 10}
    # the curve file, the format default and the cache must not come from the
    # earlier calls, nor --squares or --format json from the first one
    src = tmp_path / "fixture.curve"
    src.write_text("curve -4 4\npoint 1 1 1\n")
    code, out, _ = run(
        capsys, "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--n", "2",
        "--format", "csv", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0 and out.splitlines()[2].startswith("2,4,")
    code, out, _ = run(capsys, "eds", "gen", "--curve-file", str(src), "--n", "2")
    assert code == 0 and out.splitlines()[2].split()[:2] == ["2", "2"]
    assert len(list((tmp_path / "cache").iterdir())) == 1
    code, out, _ = run(capsys, *lrs_args)
    assert code == 0 and out.splitlines()[1].split() == ["5", "20"]


def test_a_command_outside_the_groups_builds_no_group_parser(tmp_path):
    cert = tmp_path / "cert.json"
    assert main([*REFUTE, "--out", str(cert)]) == 0
    assert _parsers_built(("verify", str(cert))) == ["edslab", "edslab verify"]


def test_group_help_builds_the_group_parser_and_no_subcommand_parser():
    assert _parsers_built(("lrs", "--help")) == ["edslab", "edslab lrs"]


def test_tracing_writes_json_lines_to_stderr_and_leaves_stdout_as_it_is():
    command = ("-c", "import sys, edslab.cli; sys.exit(edslab.cli.main(sys.argv[1:]))", *LRS_EVAL)
    untraced = _python(*command, EDSLAB_TRACE="0")
    traced = _python(*command, EDSLAB_TRACE="1")
    assert untraced.stdout == traced.stdout == "34\n" and untraced.stderr == ""
    records = [json.loads(line) for line in traced.stderr.splitlines()]
    assert [(r["span"], r["parent"], r.get("leaf"), r.get("command")) for r in records] == [
        ("cli.leaf", "cli.parse", "lrs eval", None),
        ("cli.parse", None, None, None),
        ("cli.run", None, None, "lrs eval"),
    ]
    assert all(r["s"] >= 0 for r in records)


def test_eds_ward_fixture(capsys):
    code, out, _ = run(capsys, "eds", "ward", "--seed", "1", "1", "-1", "1", "--n", "10", "--format", "csv")
    assert code == 0
    rows = dict(tuple(line.split(",")) for line in out.strip().splitlines()[1:])
    assert rows["5"] == "2"
    assert rows["6"] == "-1"


def test_eds_ward_invalid_seed_exit2(capsys):
    code, _, err = run(capsys, "eds", "ward", "--seed", "1", "2", "1", "1", "--n", "5")
    assert code == 2
    assert "w4" in err or "divide" in err


def test_eds_period_json(capsys):
    code, out, _ = run(
        capsys,
        "eds", "period", "--curve", "0", "3", "--point", "1", "2", "1", "--p", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 24
    assert payload["divides_bound"] is True


def test_eds_period_refuses_a_prime_dividing_2y1(capsys):
    # 2*y1 = 52 = 4*13: modulo 13 the point has order 2 and w_2 = 0, and the
    # refusal named a stream that the command never walks
    argv = ("eds", "period", "--curve", "-6", "1", "--point", "9", "26", "1", "--p", "13")
    assert run(capsys, *argv) == (2, "", "error: need p coprime to the discriminant, z1 and 2*y1 (p=13)\n")


def test_eds_period_unconfirmed_exit3(capsys, monkeypatch):
    monkeypatch.setattr(eds, "ward_period", lambda seeds, p, rank: None)
    code, out, _ = run(
        capsys,
        "eds", "period", "--curve", "0", "3", "--point", "1", "2", "1", "--p", "5", "--format", "json",
    )
    assert code == 3
    assert json.loads(out)["status"] == "unconfirmed"


def test_eds_period_has_no_horizon(tmp_path, capsys):
    argv = ["eds", "period", "--curve", "0", "3", "--point", "1", "2", "1", "--p", "5"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--horizon", "10"])
    assert exc.value.code == 2
    config = tmp_path / "edslab.conf"
    config.write_text("horizon = 10\n")
    code, _, err = run(capsys, *argv, "--config", str(config))
    assert code == 2 and "unknown key 'horizon'" in err


@pytest.mark.parametrize("leaf,flag,key", [("gl2", "--linear-cap", "linear_cap"), ("affine", "--affine-cap", "affine_cap")])
def test_density_has_no_enumeration_cap(tmp_path, capsys, leaf, flag, key):
    argv = ["density", leaf, "--q", "5", "--a", "3", "--b", "2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "13"])
    assert exc.value.code == 2
    config = tmp_path / "edslab.conf"
    config.write_text(f"{key} = 13\n")
    code, _, err = run(capsys, *argv, "--config", str(config))
    assert code == 2 and f"unknown key '{key}'" in err


def test_eds_zsigmondy(capsys):
    code, out, _ = run(
        capsys, "eds", "zsigmondy", "--curve", "0", "3", "--point", "1", "2", "1", "--n", "12",
        "--format", "csv",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 13


def test_lrs_fit_from_file(tmp_path, capsys):
    terms = tmp_path / "terms.txt"
    terms.write_text("\n".join("1 1 2 3 5 8 13 21 34 55".split()) + "\n")
    code, out, _ = run(capsys, "lrs", "fit", "--terms-file", str(terms))
    assert code == 0
    assert out.strip() == "lrs 2 1 1 1 1"


def test_lrs_fit_no_fit_exit3(tmp_path, capsys):
    terms = tmp_path / "terms.txt"
    terms.write_text("\n".join(["1", "2", "6", "24", "120", "720", "5040", "40320"]) + "\n")
    code, _, err = run(capsys, "lrs", "fit", "--terms-file", str(terms), "--bound", "3")
    assert code == 3
    assert "no integer recurrence" in err


def test_lrs_eval_and_mod(capsys):
    code, out, _ = run(capsys, "lrs", "eval", "--lrs", "2", "1", "1", "1", "1", "--n", "10")
    assert code == 0 and out.strip() == "55"
    # the Pisano period mod 5 is 20, so u_{10^6} = u_{20} = 6765 = 0 (mod 5)
    code, out, _ = run(
        capsys, "lrs", "eval", "--lrs", "2", "1", "1", "1", "1", "--n", "1000000", "--mod", "5"
    )
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("mod", ["0", "1", "-7"])
def test_lrs_eval_rejects_a_modulus_below_2(capsys, mod):
    code, out, err = run(capsys, "lrs", "eval", "--lrs", "2", "1", "1", "1", "1", "--n", "10", "--mod", mod)
    assert (code, out) == (2, "")
    assert err == f"error: --mod {mod} must be at least 2\n"


def test_lrs_decimate(capsys):
    code, out, _ = run(capsys, "lrs", "decimate", "--lrs", "2", "1", "1", "1", "1", "--m", "2")
    assert code == 0
    assert out.strip() == "lrs 2 3 -1 1 3"


def test_lrs_degenerate_with_reduction(capsys):
    code, out, _ = run(
        capsys,
        "lrs", "degenerate", "--lrs", "2", "0", "1", "0", "2", "--reduce", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degenerate"] is True
    assert payload["witness_order"] == 2
    assert payload["reduced"] == "lrs 1 1 2"


def test_lrs_period_with_squares(capsys):
    code, out, _ = run(
        capsys, "lrs", "period", "--lrs", "2", "1", "1", "1", "1", "--p", "5", "--squares",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 20


def test_density_gl2(capsys):
    code, out, _ = run(capsys, "density", "gl2", "--q", "3", "--a", "0", "--b", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["numerator"] == 12 and payload["denominator"] == 48


def test_density_affine(capsys):
    code, out, _ = run(capsys, "density", "affine", "--q", "5", "--a", "3", "--b", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["numerator"] > 0
    assert payload["denominator"] == 480 * 25


def test_density_empirical(capsys):
    code, out, err = run(
        capsys,
        "density", "empirical", "--curve", "0", "3", "--point", "1", "2", "1",
        "--q", "3", "--x", "1000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["empirical"]["scanned"] > 0
    assert not {"x", "hits", "scanned"} & set(payload)  # flat only in a table or CSV


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_density_empirical_scan_columns_are_integers(capsys, fmt):
    # the empirical cell was a dict repr, {'x': 1000, 'hits': ..., 'scanned': ...}
    code, out, _ = run(capsys, *EMPIRICAL, "--x", "1000", "--format", fmt)
    assert code == 0
    header, row = csv.reader(out.splitlines()) if fmt == "csv" else (line.split() for line in out.splitlines())
    cells = dict(zip(header, row, strict=True))
    assert "empirical" not in cells
    x, hits, scanned = (int(cells[key]) for key in ("x", "hits", "scanned"))
    assert x == 1000 and cells["frequency"] == f"{hits}/{scanned}" and 0 < scanned < x


def test_refute_verify_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "refute", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--q", "5", "--p-max", "10000",
        "--out", str(cert_path),
    )
    assert code == 0
    assert "witness p=7" in out
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0

    # tamper: exit 4
    payload = json.loads(cert_path.read_text())
    payload["point_order"] = str(int(payload["point_order"]) * 2)
    cert_path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    code, out, _ = run(capsys, "verify", str(cert_path), "--format", "json")
    assert code == 4
    assert json.loads(out)["ok"] is False


def test_refute_verify_a_witness_past_the_former_horizon_cap(tmp_path, capsys):
    # the window of p = 2,699 (order 2,697) is 14,558,422 terms, and no
    # longer keeps refute from certifying it
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "refute", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--q", "31", "--p-max", "10000",
        "--out", str(cert_path),
    )
    assert (code, out) == (0, f"witness p=2699 (q=31); certificate: {cert_path}\n")
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and "FAIL" not in out


def _failing_checks(out):
    return [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]


@pytest.mark.parametrize(
    "field,edit",
    [
        ("tz_window", lambda pl: pl.update(tz_window=["1", str(int(pl["tz_window"][1]) + 1)])),
        ("mismatch_index", lambda pl: pl["mismatches"][0].update(n=str(refuter.MAX_MISMATCH_INDEX + 1))),
    ],
)
def test_verify_unbounded_certificate_exit4(tmp_path, capsys, monkeypatch, field, edit):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "refute", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--q", "5", "--p-max", "100", "--out", str(cert_path),
    )
    assert code == 0
    payload = json.loads(cert_path.read_text())
    edit(payload)
    cert_path.write_text(json.dumps(payload))

    def no_work(*args, **kwargs):
        raise AssertionError("the verifier did work before bounding it")

    monkeypatch.setattr(refuter, "ladder_block", no_work)
    monkeypatch.setattr(refuter, "ward_period", no_work)
    monkeypatch.setattr(refuter, "generate_geometric", no_work)
    code, out, _ = run(capsys, "verify", str(cert_path), "--format", "json")
    assert code == 4
    assert _failing_checks(out) == [field]


def test_verify_tests_no_primality_past_its_bounds(tmp_path, capsys, monkeypatch):
    # each is_prime of these 4,291-digit p and q took about 7.5 s (Python 3.11.7, one core of
    # a shared 2-core machine), both before p_bound failed
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "refute", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--q", "13", "--out", str(cert_path),
    )
    assert code == 0
    payload = json.loads(cert_path.read_text())
    payload.update(p=str(10**4290 + 1), q=str(10**4290 + 3))
    cert_path.write_text(json.dumps(payload))
    is_prime = refuter.is_prime

    def bounded(n):
        assert n <= 2**64, "the verifier tested a number past its bounds for primality"
        return is_prime(n)

    monkeypatch.setattr(refuter, "is_prime", bounded)
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(cert_path), "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 4
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks)[:3] == ["q_prime", "p_prime", "p_bound"]
    assert not any(checks[name]["ok"] for name in ("q_prime", "p_prime", "p_bound"))
    assert "untested: above 1001997, the largest point order" in checks["q_prime"]["detail"]
    assert checks["p_prime"]["detail"].endswith("untested: above 999997, the finder's limit")


def _assert_verifies_until_edited(capsys, cert_path):
    """verify accepts the file, and fails only `mismatches` once one residue is edited."""
    code, _, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    payload = json.loads(cert_path.read_text())
    first = payload["mismatches"][0]
    first["z_mod"] = str((int(first["z_mod"]) + 1) % int(payload["p"]))
    cert_path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", str(cert_path), "--format", "json")
    assert code == 4
    assert _failing_checks(out) == ["mismatches"]


def test_verify_point_outside_companion_model_exit4(tmp_path, capsys):
    # gcd(2*2, 3*2^2 - 2) = 2: |w_n| != z_n, yet the zeros of z_n mod p are the
    # multiples of the point order at every p not dividing 2y
    point = PointQ(2, 2, 1)
    cert = refuter.find_witness(CurveQ(-2, 0), point, FIBONACCI, 5, p_max=2_000).certificate
    assert cert.point == point and cert.p == 17
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(cert.to_json())
    _assert_verifies_until_edited(capsys, cert_path)


@pytest.mark.parametrize(
    "edit,named",
    [
        (lambda pl: {k: v for k, v in pl.items() if k != "tz_window"}, "tz_window"),
        (lambda pl: {**pl, "tz_window": ["1"]}, "tz_window"),
        (lambda pl: {**pl, "mismatches": [{"n": "3", "u_mod": "6"}]}, "mismatches"),
        (lambda pl: [], "JSON object"),
        (lambda pl: {**pl, "q_divides_tu": "false"}, "q_divides_tu"),
        (lambda pl: {**pl, "q_divides_tz": 1}, "q_divides_tz"),
        # read as int(7.9) = 7, verified; as 1; and an OverflowError traceback
        (lambda pl: {**pl, "p": float(pl["p"]) + 0.9}, "'p' must be an integer"),
        (lambda pl: {**pl, "n_points": True}, "'n_points' must be an integer"),
        (lambda pl: {**pl, "trace": float("inf")}, "'trace' must be an integer"),
    ],
    ids=[
        "missing_key", "short_window", "mismatch_without_z_mod", "top_level_list",
        "flag_as_string", "flag_as_integer", "integer_as_float", "integer_as_boolean", "integer_as_infinity",
    ],
)
def test_verify_malformed_certificate_exit2(tmp_path, edit, named):
    cert = refuter.find_witness(CurveQ(-4, 4), PointQ(1, 1, 1), FIBONACCI, 5, p_max=100).certificate
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(edit(json.loads(cert.to_json()))))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "edslab.cli", "verify", str(cert_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and named in proc.stderr
    assert proc.stderr.startswith("error: ")


@PRINT_LIMIT
def test_verify_names_the_field_of_a_bare_number_past_the_print_limit(tmp_path, capsys):
    # this printed CPython's "Exceeds the limit (4300 digits) for integer string
    # conversion ...", from inside the JSON decoder, naming neither field nor file
    cert = refuter.find_witness(CurveQ(-4, 4), PointQ(1, 1, 1), FIBONACCI, 5, p_max=100).certificate
    payload = json.loads(cert.to_json())
    cert_path = tmp_path / "cert.json"

    def verify(edit, number):
        cert_path.write_text(json.dumps(edit(payload)).replace('"NUMBER"', number))
        return run(capsys, "verify", str(cert_path))

    limit = sys.get_int_max_str_digits()
    assert verify(lambda pl: {**pl, "p": "NUMBER"}, "7" * (limit + 1)) == (
        2, "", f"error: certificate field 'p' has more than {limit} digits, the int-to-str limit (PYTHONINTMAXSTRDIGITS)\n"
    )
    # a bare number within the limit still parses as the integer it is
    code, out, _ = verify(lambda pl: {**pl, "p": "NUMBER"}, payload["p"])
    assert code == 0 and "FAIL" not in out
    # and a bare-number schema version is still not the string "1"
    assert verify(lambda pl: {**pl, "schema_version": "NUMBER"}, "1") == (
        2, "", "error: unsupported schema version 1\n"
    )


def test_verify_names_a_file_that_is_not_json(tmp_path, capsys):
    # this printed the decoder's "Expecting value: line 1 column 1 (char 0)" alone
    curve_path = tmp_path / "c.curve"
    curve_path.write_text("curve -4 4\npoint 1 1 1\n")
    assert run(capsys, "verify", str(curve_path)) == (
        2, "", f"error: {curve_path}:1: not a JSON certificate: Expecting value\n"
    )


EMPIRICAL = ("density", "empirical", "--curve", "0", "3", "--point", "1", "2", "1", "--q", "3")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_density_empirical_jobs_below_one_exit2(capsys, jobs):
    code, out, err = run(capsys, *EMPIRICAL, "--x", "1000", "--jobs", jobs)
    assert code == 2
    assert not out
    assert err == f"error: --jobs {jobs} must be at least 1\n"


FIB_PERIOD = ("lrs", "period", "--lrs", "2", "1", "1", "1", "1", "--p", "7")
REFUTE = (
    "refute", "--curve", "-4", "4", "--point", "1", "1", "1", "--lrs", "2", "1", "1", "1", "1", "--q", "5",
)


@pytest.mark.parametrize(
    "argv,message",
    [
        ((*EMPIRICAL, "--x", "-5"), "--x -5 must be at least 3"),
        ((*EMPIRICAL, "--x", "2"), "--x 2 must be at least 3"),
        ((*REFUTE, "--p-max", "0"), "--p-max 0 must be at least 3"),
        ((*REFUTE, "--p-max", "2"), "--p-max 2 must be at least 3"),
        ((*EMPIRICAL, "--exclude", "7,x"), "--exclude '7,x' must list integers, separated by commas"),
        ((*REFUTE, "--exclude", "1.5"), "--exclude '1.5' must list integers, separated by commas"),
    ],
)
def test_prime_bound_below_three_or_a_bad_exclusion_exit2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,line,message",
    [
        (EMPIRICAL, "x = 1", "x = 1 in {} must be at least 3"),
        (REFUTE, "p_max = 2", "p_max = 2 in {} must be at least 3"),
        (EMPIRICAL, "exclude = 7,x", "exclude = '7,x' in {} must list integers, separated by commas"),
        (("eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1"), "n = 0", "n = 0 in {} must be at least 1"),
        (EMPIRICAL, "x = abc", "x = abc in {} must be an integer"),
        (REFUTE, "a = 1.5", "a = 1.5 in {} must be an integer"),
        (EMPIRICAL, "jobs = 0", "jobs = 0 in {} must be at least 1"),
        (
            ("eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1"),
            "n = 1001",
            "n = 1001 in {} asks for 1001 terms, more than the bound 1000",
        ),
        (FIB_PERIOD, "format = xml", "format = xml in {} must be one of table, json, csv"),
    ],
)
def test_a_bad_config_value_is_named_by_its_key_and_file(tmp_path, capsys, argv, line, message):
    # a value from the config file is named by its key there, not by a flag never passed
    config = tmp_path / "edslab.conf"
    config.write_text(line + "\n")
    assert run(capsys, *argv, "--config", str(config)) == (2, "", f"error: {message.format(config)}\n")


def test_density_empirical_prime_bound_three_scans_one_prime(capsys):
    code, out, _ = run(capsys, "density", "empirical", "--curve", "-4", "4", "--point", "1", "1", "1",
                       "--q", "5", "--x", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["empirical"]["scanned"] == 1


def test_density_empirical_jobs_two_prints_what_jobs_one_prints(capsys):
    # with two CPUs, two workers each take every other scanned prime
    argv = (*EMPIRICAL, "--x", "3000", "--exclude", "7,13", "--format", "json")
    one, two = (run(capsys, *argv, "--jobs", jobs) for jobs in "12")
    assert one == two
    assert one[0] == 0 and json.loads(one[1])["empirical"]["scanned"] > 64


def test_density_empirical_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, _ = run(capsys, *EMPIRICAL, "--x", "1000", "--jobs", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["empirical"]["scanned"] > 64


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "empirical", "--curve", "0", "3", "--point", "1", "2", "1", "--q", "5", "--x", "1001"),
        ("refute", "--curve", "-4", "4", "--point", "1", "1", "1", "--lrs", "2", "1", "1", "1", "1",
         "--q", "5", "--p-max", "1001"),
    ],
)
def test_prime_bound_past_the_sieve_limit_exit2(capsys, monkeypatch, argv):
    monkeypatch.setattr(ntkernel, "MAX_SIEVE_LIMIT", 1000)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert err == "error: prime bound 1001 exceeds the sieve limit 1000\n"


def test_refute_exhaustion_exit3(capsys):
    code, _, err = run(
        capsys,
        "refute", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--q", "5", "--p-max", "6",
    )
    assert code == 3
    assert "no witness prime" in err


def test_refute_scans_no_prime_above_the_witness_bound(capsys, monkeypatch):
    # (0,3), (1,2,1), Fibonacci, q = 5, a = 4 has no witness (5 is inert in
    # its CM field, and 3 is bad): the scan stops at MAX_WITNESS_P, not at
    # --p-max, and the message names the bound it used
    monkeypatch.setattr(refuter, "MAX_WITNESS_P", 1_000)
    code, _, err = run(
        capsys,
        "refute", "--curve", "0", "3", "--point", "1", "2", "1",
        "--lrs", "2", "1", "1", "1", "1", "--q", "5", "--a", "4", "--p-max", "100000",
    )
    assert code == 3
    assert err.startswith("no witness prime <= 1000; per-condition counts:\n")
    assert "  scanned: 168\n" in err


EMPTY_CLASS_NOTE = (
    "note: an empty class up to this bound does not prove that no witness exists beyond it, and the mod-q"
    " Galois image may be smaller than GL2 (Zywina, arXiv:1508.07660)\n"
)


def test_refute_with_an_empty_class_says_that_it_proves_nothing(capsys, monkeypatch):
    # the class of (0,3), (1,2,1) at q = 5, a = 4 is empty (5 is inert in its
    # CM field); the counts keep their lines and one note follows them
    monkeypatch.setattr(refuter, "MAX_WITNESS_P", 1_000)
    stats = refuter.find_witness(CurveQ(0, 3), PointQ(1, 2, 1), FIBONACCI, 5, a_target=4, p_max=1_000).stats
    counts = "".join(f"  {key}: {value}\n" for key, value in sorted(stats.items()))
    argv = ("refute", "--curve", "0", "3", "--point", "1", "2", "1", *FIB_ARGS, "--q", "5", "--a", "4")
    head = "no witness prime <= 1000; per-condition counts:\n"
    assert stats["candidates"] == 0
    assert run(capsys, *argv) == (3, "", head + counts + EMPTY_CLASS_NOTE)


def test_refute_exhausted_past_its_candidates_adds_no_note(capsys, monkeypatch):
    # every candidate below 2,000 is skipped, as no Fibonacci period there is <= 10
    monkeypatch.setattr(lrs, "MAX_WALK", 10)
    code, out, err = run(capsys, "refute", *CURVE_44, *FIB_ARGS, "--q", "5", "--p-max", "2000")
    assert (code, out) == (3, "")
    assert "  candidates: 0\n" not in err and "note:" not in err


@pytest.mark.parametrize(
    "curve, point, p, q",
    [(("0", "17"), ("-2", "3", "1"), 37, 7), (("0", "3"), ("1", "2", "1"), 499, 7), (("-2", "0"), ("2", "2", "1"), 17, 5)],
)
def test_refute_takes_a_q_split_in_the_cm_field(tmp_path, capsys, curve, point, p, q):
    # (0,17) and (0,3) have j = 0, so CM by Q(sqrt(-3)), where 5 is inert:
    # no p = 2 (mod 5) has 5 | #E(F_p).  Refute took q = 5 on both, scanned
    # all 78,498 primes below 10^6 and exited 3; it now takes the split
    # q = 7.  (-2,0) has j = 1728, so CM by Q(i), where 5 splits
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "refute", "--curve", *curve, "--point", *point, "--lrs", "2", "1", "1", "1", "1",
                       "--out", str(cert))
    assert (code, out) == (0, f"witness p={p} (q={q}); certificate: {cert}\n")
    assert run(capsys, "verify", str(cert))[0] == 0


def test_refute_refuses_an_inert_q_naming_the_cm_field(capsys, monkeypatch):
    monkeypatch.setattr(refuter, "order_class_primes", _refuse)
    argv = ("refute", "--curve", "0", "17", "--point", "-2", "3", "1", "--lrs", "2", "1", "1", "1", "1", "--q", "5")
    assert run(capsys, *argv) == (
        2, "", "error: q=5 is inert in the CM field Q(sqrt(-3)), so q | #E(F_p) needs p = +-1 (mod q)\n"
    )


def test_falsify(capsys):
    code, out, _ = run(
        capsys,
        "falsify", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--p", "7", "--window", "40",
    )
    assert code == 0
    assert out.strip()


OUTSIDE_COMPANION_MODEL = ("--curve", "0", "17", "--point", "-2", "3", "1")  # gcd(2y, 3x^2 + a) = 6


def test_falsify_point_outside_companion_model_exit2(capsys):
    # it reads the residues of z_n mod p from w_n, which here is not z_1*|w_n| mod p
    code, out, err = run(capsys, "falsify", *OUTSIDE_COMPANION_MODEL, "--lrs", "2", "1", "1", "1", "1", "--p", "7")
    assert code == 2
    assert not out
    assert "singular modulo [2, 3]" in err


def test_eds_period_point_outside_companion_model(capsys):
    # the rank, #E, the trace and the period of w_n hold at every good prime
    code, out, err = run(capsys, "eds", "period", *OUTSIDE_COMPANION_MODEL, "--p", "101", "--format", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["status"], result["period"], result["rank"], result["n_points"]) == ("confirmed", 10200, 102, 102)


def test_refute_certifies_point_outside_companion_model(tmp_path, capsys):
    # the certificate rests only on the zero set, the order and tu; q = 5
    # finds no witness here, since the curve has CM by Q(sqrt(-3))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "refute", *OUTSIDE_COMPANION_MODEL, "--lrs", "2", "1", "1", "1", "1", "--q", "7",
        "--p-max", "2000", "--out", str(cert_path),
    )
    assert code == 0
    assert "witness p=37" in out
    assert json.loads(cert_path.read_text())["point"] == {"x": "-2", "y": "3", "z": "1"}
    _assert_verifies_until_edited(capsys, cert_path)


def test_lrs_period_past_the_walk_bound_exit2(capsys, monkeypatch):
    # the period of this recurrence mod 3169 is 10,042,560
    monkeypatch.setattr(lrs, "MAX_WALK", 1_000)
    code, out, err = run(
        capsys, "lrs", "period", "--lrs", "2", "1", "7", "1", "1", "--p", "3169", "--method", "iteration",
    )
    assert code == 2
    assert not out
    assert err == "error: the recurrence mod 3169 does not return within 1000 steps\n"


def test_lrs_period_iteration_refuses_before_walking(capsys, monkeypatch):
    # the period mod 317 exceeds lrs.MAX_WALK: x^t mod chi reads it, and the
    # walk, whose first call opens its span, never starts
    monkeypatch.setattr(lrs, "_span", _refuse)
    code, out, err = run(
        capsys, "lrs", "period", "--lrs", "4", "5", "1", "-1", "-3", "-3", "5", "-5", "0", "--p", "317",
        "--method", "iteration",
    )
    assert (code, out) == (2, "")
    assert err == f"error: the recurrence mod 317 does not return within {lrs.MAX_WALK} steps\n"


def test_lrs_period_with_squares_walks_u_once(capsys, monkeypatch):
    # the walk that samples the squares gives the period of u as well, so no
    # other period finder runs; past the walk bound the refusal is unchanged
    monkeypatch.setattr(lrs, "lrs_period_mod_p", _refuse)
    code, out, _ = run(capsys, "lrs", "period", "--lrs", "2", "1", "1", "1", "1", "--p", "5", "--squares")
    assert code == 0 and out.splitlines()[1].split() == ["5", "20", "10"]
    monkeypatch.setattr(lrs, "MAX_WALK", 1_000)
    code, out, err = run(capsys, "lrs", "period", "--lrs", "2", "1", "7", "1", "1", "--p", "3169", "--squares")
    assert (code, out, err) == (2, "", "error: the recurrence mod 3169 does not return within 1000 steps\n")


def test_lrs_period_with_squares_walks_u_whatever_the_method(capsys):
    # the square-sampled period needs the walk of u mod p, so past
    # lrs.MAX_WALK `--squares` exits 2 where `lrs period` alone reads the
    # period from x^t mod chi
    args = ("lrs", "period", "--lrs", "5", "1", "1", "0", "0", "1", "1", "1", "1", "1", "1", "--p", "223")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert (code, json.loads(out)) == (0, {"p": 223, "period": 2_484_112_961})
    assert 2_484_112_961 > lrs.MAX_WALK
    refusal = f"error: the recurrence mod 223 does not return within {lrs.MAX_WALK} steps\n"
    for method in ((), ("--method", "matrix"), ("--method", "iteration")):
        assert run(capsys, *args, *method, "--squares") == (2, "", refusal)


def factoring_gives_up_past(bound: int):
    """A stand-in for ntkernel.factorize that gives up at once on any n above bound."""
    factorize = ntkernel.factorize

    def stand_in(n: int, **kwargs) -> dict[int, int]:
        if n > bound:
            raise ntkernel.IncompleteFactorization(n, {}, n)
        return factorize(n, **kwargs)

    return stand_in


GIVES_UP = r"could not fully factor a \d+-bit integer; stuck at a \d+-bit cofactor"
# u_(n+16) = u_(n+15) + u_n: at p = 1009 the bound on its period did not
# factor within rho's effort budget, after minutes of trying
SLOW_TO_FACTOR = ("lrs", "period", "--lrs", "16", "1", *"0" * 14, "1", *"1" * 16, "--p", "1009")


@pytest.mark.parametrize("argv", [SLOW_TO_FACTOR, (*SLOW_TO_FACTOR, "--squares"), REFUTE])
def test_factoring_that_gives_up_exit2(capsys, monkeypatch, argv):
    monkeypatch.setattr(ntkernel, "factorize", factoring_gives_up_past(0))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and re.fullmatch(f"error: {GIVES_UP}\n", err)


def test_verify_fails_lrs_period_when_factoring_gives_up(tmp_path, capsys, monkeypatch):
    # at the witness p = 353, p^5 > lrs.MAX_WALK: the period of u mod p is
    # read from x^t mod chi, stripping primes from a bound above MAX_WALK
    cert = tmp_path / "cert.json"
    order_5 = ("--lrs", "5", "1", "1", "0", "0", "1", *"11111", "--q", "13", "--out", str(cert))
    assert run(capsys, "refute", "--curve", "-4", "4", "--point", "1", "1", "1", *order_5)[0] == 0
    monkeypatch.setattr(ntkernel, "factorize", factoring_gives_up_past(lrs.MAX_WALK))
    code, out, err = run(capsys, "verify", str(cert), "--format", "json")
    assert (code, err) == (4, "")
    [failed] = [check for check in json.loads(out)["checks"] if not check["ok"]]
    assert failed["name"] == "lrs_period" and re.fullmatch(GIVES_UP, failed["detail"])


FIB_ARGS = ("--lrs", "2", "1", "1", "1", "1")
FALSIFY_FIB = ("falsify", "--curve", "-4", "4", "--point", "1", "1", "1", *FIB_ARGS, "--p", "7")


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the bound was checked")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lrs", "decimate", *FIB_ARGS, "--m", "1001"), "--m 1001 exceeds the decimation bound 1000"),
        ((*FALSIFY_FIB, "--window", "10001"), "window 10001 exceeds the falsify window bound 10000"),
        (
            (*FALSIFY_FIB, "--start", "999990", "--window", "12"),
            "last index 1000001 exceeds the falsify index bound 1000000",
        ),
    ],
)
def test_sizing_option_past_its_bound_exit2_before_any_work(capsys, monkeypatch, argv, message):
    for module, name in ((lrs, "generate"), (lrs, "eval_exact"), (refuter, "ladder_block")):
        monkeypatch.setattr(module, name, _refuse)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_exact_lrs_eval_bounds_the_size_of_its_terms(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "lrs", "eval", "--lrs", "1", str(10**300 + 7), "1", "--n", "5000")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: --n 5000: x^19 mod the characteristic polynomial has a ")
    assert err.endswith("; --mod M evaluates it modulo M\n")
    code, out, _ = run(capsys, "lrs", "eval", *FIB_ARGS, "--n", "20000")
    assert code == 0 and len(out.strip()) == 4180
    # past 14,284 bits a term may pass the 4,300 digits CPython prints: the
    # term bound refuses it, and CPython's int-to-str advice never shows
    assert run(capsys, "lrs", "eval", *FIB_ARGS, "--n", "21000") == (
        2,
        "",
        "error: --n 21000: u_21000 has 14578 bits, past the term bound 14284; --mod M evaluates it modulo M\n",
    )


def test_exact_lrs_eval_takes_any_n_whose_term_fits(capsys):
    # --n above 10^5 exited 2 before any step: u_n = n at 10^30 reads x^(5*10^29)
    n = str(10**30)
    assert run(capsys, "lrs", "eval", "--lrs", "2", "2", "-1", "1", "2", "--n", n) == (0, n + "\n", "")
    # u = 0 on a 300-digit coefficient: its minimal recurrence is u_(n+1) = u_n
    start = time.monotonic()
    assert run(capsys, "lrs", "eval", "--lrs", "2", "0", str(10**300), "0", "0", "--n", "100000") == (0, "0\n", "")
    assert time.monotonic() - start < 1


CURVE_44 = ("--curve", "-4", "4", "--point", "1", "1", "1")
EDS_GEN_44 = ("eds", "gen", *CURVE_44, "--cache-dir", ".")


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*EDS_GEN_44, "--n", "3", "--stride", "100000000"), "--n 3 times --stride 100000000 asks for 300000000 terms"),
        ((*EDS_GEN_44, "--n", "2000"), "--n 2000 asks for 2000 terms"),
        ((*EDS_GEN_44, "--stride", "51"), "--stride 51 asks for 1020 terms"),
        (("eds", "zsigmondy", *CURVE_44, "--n", "1001"), "--n 1001 asks for 1001 terms"),
    ],
)
def test_eds_terms_past_the_bound_exit2_before_any_work(capsys, monkeypatch, argv, message):
    # eds gen --n 3 --stride 10^8 and --n 2000 ran until killed
    for name in ("load_sequence", "generate_geometric"):
        monkeypatch.setattr(eds, name, _refuse)
    assert run(capsys, *argv) == (2, "", f"error: {message}, more than the bound {cli.MAX_EDS_TERMS}\n")


def test_eds_ward_terms_past_the_bound_exit2_before_any_work(capsys, monkeypatch):
    # --n had no bound: --n 1600 ran 1.5 s, then failed in the int-to-str conversion
    monkeypatch.setattr(eds, "generate_ward", _refuse)
    message = f"--n 1001 asks for 1001 terms, more than the bound {cli.MAX_EDS_TERMS}"
    assert run(capsys, "eds", "ward", "--seed", "1", "1", "-1", "1", "--n", "1001") == (2, "", f"error: {message}\n")


@PRINT_LIMIT
def test_eds_ward_names_the_term_past_the_print_limit(capsys):
    # this exited 2 with CPython's own "Exceeds the limit (4300 digits)", naming no term
    code, out, err = run(capsys, "eds", "ward", "--seed", "1", "1", "-1", "1", "--n", "800", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: w_623 has more than 4300 digits, the int-to-str limit (PYTHONINTMAXSTRDIGITS)\n"


@PRINT_LIMIT
def test_prooflab_ell_names_the_modulus_past_the_print_limit(capsys, monkeypatch):
    # this ran the whole lift, then exited 2 with CPython's own "Exceeds the limit (4300 digits)"
    monkeypatch.setattr(prooflab, "construct_ell", _refuse)
    argv = ("prooflab", "ell", "--r", "1000000000039", "--e", "1000", "--n0", "1", "--j", "3", "--c", "1")
    message = "--r 1000000000039 --e 1000: the modulus r^e has more than 4300 digits"
    assert run(capsys, *argv) == (2, "", f"error: {message}, the int-to-str limit (PYTHONINTMAXSTRDIGITS)\n")


@pytest.fixture
def least_print_limit():
    """CPython's least int-to-str limit, 640 digits, for the test; the limit before it afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


N250 = 10**250


# every command that prints an integer whose size the caller controls, except
# eds zsigmondy: it factors each term for minutes before it prints one this long
@PRINT_LIMIT
@pytest.mark.parametrize(
    "argv, terms, named",
    [
        (("eds", "gen", "--curve", "8", "3", "--point", "13", "48", "1", "--n", "40"), None, "z_34"),
        (("eds", "ward", "--seed", "1", "1", "-1", "1", "--n", "300"), None, "w_241"),
        (
            ("prooflab", "ell", "--r", "7", "--e", "800", "--n0", "1", "--j", "3", "--c", "1"),
            None,
            "--r 7 --e 800: the modulus r^e",
        ),
        (("lrs", "eval", *FIB_ARGS, "--n", "5000"), None, "u_5000"),
        (
            ("lrs", "decimate", "--lrs", "3", "30", "30", "30", "1", "1", "1", "--m", "200"),
            None,
            "u3 of the decimated recurrence",
        ),
        (
            ("lrs", "degenerate", "--lrs", "2", "0", str(-(10**400)), "1", "1", "--reduce"),
            None,
            "c1 of the reduced recurrence",
        ),
        # c1 = N^3 - N: three times the digits of any term
        (("lrs", "fit"), (1, N250, N250**2 - 1, 0), "c1 of the fitted recurrence"),
        # order 2 fits only with c1 = (N^3 - 2N - 1)/2, printed in the note on a non-integral fit
        (("lrs", "fit"), (1, N250, N250**2 - 2, 1), "c1 of the order-2 fit"),
    ],
    ids=["eds-gen", "eds-ward", "prooflab-ell", "lrs-eval", "lrs-decimate", "lrs-degenerate", "lrs-fit", "lrs-fatou"],
)
def test_an_integer_past_a_lowered_print_limit_is_named(tmp_path, capsys, least_print_limit, argv, terms, named):
    # the lrs commands exited 2 with CPython's own "Exceeds the limit (640 digits) ...;
    # use sys.set_int_max_str_digits() to increase the limit", naming nothing
    if terms:
        (tmp_path / "terms.txt").write_text("".join(f"{t}\n" for t in terms))
        argv = (*argv, "--terms-file", str(tmp_path / "terms.txt"))
    code, out, err = run(capsys, *argv)
    # the error names the entry and PYTHONINTMAXSTRDIGITS, and not CPython's set_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == f"error: {named} has more than 640 digits, the int-to-str limit (PYTHONINTMAXSTRDIGITS)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("eds", "period", *CURVE_44, "--p", "100000000000000000039"),
            "--p 100000000000000000039 exceeds the point-count bound 100000000000000000000",
        ),
        (("prooflab", "resclass", "--r", "10000019", "--t", "1"), "--r 10000019 exceeds the residue-count bound 10000000"),
        (
            ("prooflab", "ell", "--r", "7", "--e", "1001", "--n0", "1", "--j", "3", "--c", "1"),
            "--e 1001 exceeds the lift bound 1000",
        ),
    ],
    ids=["eds-period", "prooflab-resclass", "prooflab-ell"],
)
def test_memory_sizing_option_past_its_bound_exit2_before_any_work(capsys, monkeypatch, argv, message):
    # none was bounded: the point count's table grows as p^(1/4), the residue
    # table as r, and the lifted modulus as e
    refused = (eds, "generate_geometric"), (prooflab, "count_admissible_residues"), (prooflab, "construct_ell")
    for module, name in refused:
        monkeypatch.setattr(module, name, _refuse)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_eds_gen_at_the_term_bound_runs(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_EDS_TERMS", 6)
    code, out, _ = run(capsys, "eds", "gen", *CURVE_44, "--n", "3", "--stride", "2", "--format", "csv")
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()] == ["n", "2", "4", "6"]


@pytest.mark.parametrize("option", ["--start", "--window"])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_falsify_start_or_window_below_one_names_the_option(capsys, monkeypatch, option, value):
    # these said "need n_claim >= 1 and window >= 1", which names no option
    monkeypatch.setattr(refuter, "direct_falsify", _refuse)
    assert run(capsys, *FALSIFY_FIB, option, value) == (2, "", f"error: {option} {value} must be at least 1\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("lrs", "eval", *FIB_ARGS), "--n"),
        (("lrs", "eval", *FIB_ARGS, "--mod", "7"), "--n"),
        (("lrs", "decimate", *FIB_ARGS), "--m"),
        (("prooflab", "ell", "--r", "7", "--n0", "1", "--j", "3", "--c", "1"), "--e"),
    ],
    ids=["lrs-eval", "lrs-eval-mod", "lrs-decimate", "prooflab-ell"],
)
@pytest.mark.parametrize("value", ["0", "-2"])
def test_a_value_below_its_least_names_the_option_before_any_work(capsys, monkeypatch, argv, option, value):
    # these said "indices start at 1" (with --n 0 and no --mod: "--mod M
    # evaluates it modulo M"), "m must be >= 1" and "exponent must be >= 1"
    refused = (lrs, "eval_exact"), (lrs, "eval_mod"), (lrs, "decimate"), (prooflab, "construct_ell")
    for module, name in refused:
        monkeypatch.setattr(module, name, _refuse)
    assert run(capsys, *argv, option, value) == (2, "", f"error: {option} {value} must be at least 1\n")


def test_reduction_is_held_to_the_decimate_bound(capsys, monkeypatch):
    # u_(n+2) = u_n decimates by M^2 = 4: allowed at the bound 4, refused below it
    argv = ("lrs", "degenerate", "--lrs", "2", "0", "1", "0", "2", "--reduce", "--format", "json")
    monkeypatch.setattr(cli, "MAX_DECIMATE_M", 4)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["reduction_m"] == 2
    monkeypatch.setattr(cli, "MAX_DECIMATE_M", 3)
    monkeypatch.setattr(lrs, "decimate", _refuse)
    error = "error: the reduction decimates by M^2 = 4, more than the decimation bound 3\n"
    assert run(capsys, *argv) == (2, "", error)


def test_reduction_past_the_decimate_bound_generates_no_term(capsys, monkeypatch):
    # chi = (x^4 - 2)(x^5 - 3)(x^7 - 5): its ratio orders have lcm M = 140, and
    # decimating by M^2 would ask for 19,600 * 40 = 784,000 exact terms
    generate = lrs.generate

    def bounded(spec, n):
        if n > 10**5:
            raise AssertionError(f"asked for {n} terms")
        return generate(spec, n)

    monkeypatch.setattr(lrs, "generate", bounded)
    coeffs = ("0", "0", "0", "2", "3", "0", "5", "0", "-6", "0", "-10", "-15", "0", "0", "0", "30")
    code, out, err = run(capsys, "lrs", "degenerate", "--lrs", "16", *coeffs, *"1" * 16, "--reduce")
    assert (code, out) == (2, "")
    assert err == "error: the reduction decimates by M^2 = 19600, more than the decimation bound 1000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("refute", "--curve", "-4", "4", "--point", "1", "1", "1", "--lrs", "2", "1", "1", "1", "1",
         "--q", "5", "--p-max", "6", "--jobs", "2"),
        ("eds", "period", "--curve", "0", "3", "--point", "1", "2", "1", "--p", "5", "--cache-dir", "c"),
        ("lrs", "eval", "--lrs", "2", "1", "1", "1", "1", "--n", "5", "--exclude", "3"),
    ],
)
def test_flag_ignored_by_subcommand_exit2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_prooflab_qlemma(capsys):
    code, out, _ = run(capsys, "prooflab", "qlemma", "--coeffs", "0", "1", "--alpha", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["degree"] == 5


def test_prooflab_det(capsys):
    code, out, _ = run(capsys, "prooflab", "det", "--q", "7", "--betas", "2", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["consistent"] is True


def test_prooflab_resclass(capsys):
    code, out, _ = run(capsys, "prooflab", "resclass", "--r", "11", "--t", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_prooflab_ell(capsys):
    code, out, _ = run(
        capsys,
        "prooflab", "ell", "--r", "7", "--e", "1", "--n0", "1", "--j", "3", "--c", "1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"ell": 1, "modulus": 7, "verified": True}


def test_prooflab_fixedpoint(capsys):
    code, out, _ = run(
        capsys,
        "prooflab", "fixedpoint", "--matrix", "1/3,1/3,1/3;1/3,1/3,1/3;1/3,1/3,1/3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["eigenspace_dim"] == 1


@pytest.mark.parametrize(
    "argv,code,stream",
    [
        (("qlemma", "--coeffs", "1/2", "-3", "4/7", "--alpha", "-2/3"), 0, "13      13                16384/64827"),
        (("qlemma", "--coeffs", "-1/2", "3", "--alpha", "1"), 0, "5       5                 -324"),
        (("fixedpoint", "--matrix", "-1/2,1/2;1/3,2/3"), 2, "error: row 0: negative entry\n"),
    ],
    ids=["qlemma", "coeffs", "fixedpoint"],
)
def test_prooflab_reads_a_negative_rational_after_a_space(capsys, argv, code, stream):
    # argparse's own pattern takes -3 as a value but -2/3 as an unknown option
    got, out, err = run(capsys, "prooflab", *argv)
    assert got == code
    assert stream in (out if code == 0 else err)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "edslab.conf"
    config.write_text("format = json\nn = 4\n")
    code, out, _ = run(
        capsys, "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--config", str(config)
    )
    assert code == 0
    payload = json.loads(out)  # format from config
    assert len(payload) == 4  # n from config
    # flag wins over config
    code, out, _ = run(
        capsys,
        "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1",
        "--config", str(config), "--n", "2", "--format", "csv",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_config_unknown_key_exit2(tmp_path, capsys):
    config = tmp_path / "edslab.conf"
    config.write_text("frmt = json\n")
    code, _, err = run(
        capsys, "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--config", str(config)
    )
    assert code == 2
    assert "unknown key" in err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EDSLAB_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "eds", "gen", "--curve", "0", "3", "--point", "1", "2", "1", "--n", "4")
    assert code == 0
    assert list(tmp_path.glob("*.eds"))


def test_missing_sources_exit2(capsys):
    code, _, err = run(capsys, "eds", "gen", "--n", "4")
    assert code == 2
    assert "curve" in err


@pytest.mark.parametrize("r", ["0", "4", "-5"])
def test_prooflab_ell_refuses_a_modulus_that_is_not_an_odd_prime(capsys, r):
    # --r 0 exited 1 with a ZeroDivisionError traceback
    argv = ("prooflab", "ell", "--r", r, "--n0", "1", "--j", "1", "--c", "1")
    assert run(capsys, *argv) == (2, "", f"error: modulus {r} is not an odd prime\n")


def test_bad_point_exit2(capsys):
    code, _, err = run(capsys, "eds", "gen", "--curve", "0", "3", "--point", "1", "5", "1", "--n", "4")
    assert code == 2
    assert "not on the curve" in err


def test_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "density", "gl2", "--q", "5", "--a", "1", "--b", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_curve_file_ingestion(tmp_path, capsys):
    src = tmp_path / "fixture.curve"
    src.write_text("# fixture\ncurve 0 3\npoint 1 2 1\n")
    code, out, _ = run(capsys, "eds", "gen", "--curve-file", str(src), "--n", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[2].startswith("2,4")


LONG = "7" * 5000  # past CPython's default int-to-str limit of 4,300 digits
PAST_LIMIT = "has more than 4300 digits, the int-to-str limit (PYTHONINTMAXSTRDIGITS)"
FIT = ("lrs", "fit", "--terms-file", "terms.txt")


def _certificate_with(name: str):
    """The text of a valid certificate with its field `name` set to the value given."""

    def text(value: str) -> str:
        cert = refuter.find_witness(CurveQ(-4, 4), PointQ(1, 1, 1), FIBONACCI, 5, p_max=100).certificate
        return json.dumps({**json.loads(cert.to_json()), name: value})

    return text


QLEMMA = ("prooflab", "qlemma", "--coeffs", "1", "2")
RATIONAL = "must be a rational p or p/q, with q not 0"


# every text input is read by one line loop and one integer conversion: a
# '#' comment may follow a value, an integer past the int-to-str limit is
# named by its source in a short message, and a non-integer by FILE:LINE.
# A certificate's integers and prooflab's rationals go through the same
# conversion, and every refusal echoes at most the start of a value
@PRINT_LIMIT
@pytest.mark.parametrize(
    "name, text, argv, expected",
    [
        # a comment after a value was a "malformed lrs line" and an invalid literal for int()
        ("claim.lrs", "lrs 2 1 1 1 1  # Fibonacci\n", ("lrs", "eval", "--lrs-file", "claim.lrs", "--n", "10"),
         (0, "55\n", "")),
        ("terms.txt", "# Fibonacci\n1\n1\n\n2\n3\n5\n8 # F6\n13\n21\n34\n55\n", FIT, (0, "lrs 2 1 1 1 1\n", "")),
        # the limit: echoed in 5,000 characters, or CPython's advice with no source
        ("edslab.conf", f"x = {LONG}\n", (*EMPIRICAL, "--config", "edslab.conf"),
         (2, "", f"error: x = 777777777777777777777... in edslab.conf {PAST_LIMIT}\n")),
        ("e.curve", f"curve {LONG} 4\npoint 1 1 1\n", ("eds", "gen", "--curve-file", "e.curve"),
         (2, "", f"error: e.curve:1: 777777777777777777777... {PAST_LIMIT}\n")),
        ("claim.lrs", f"lrs 1 2 {LONG}\n", ("lrs", "eval", "--lrs-file", "claim.lrs", "--n", "3"),
         (2, "", f"error: claim.lrs:1: 777777777777777777777... {PAST_LIMIT}\n")),
        ("terms.txt", f"1\n{LONG}\n", FIT, (2, "", f"error: terms.txt:2: 777777777777777777777... {PAST_LIMIT}\n")),
        ("cert.json", _certificate_with("p"), ("verify", "cert.json"),
         (2, "", f"error: certificate field 'p' {PAST_LIMIT}\n")),
        # a whole 5,000-character value echoed in the refusal
        ("cert.json", _certificate_with("schema_version"), ("verify", "cert.json"),
         (2, "", "error: unsupported schema version '77777777777777777777...\n")),
        ("cert.json", _certificate_with("q_divides_tz"), ("verify", "cert.json"),
         (2, "", "error: certificate field 'q_divides_tz' is malformed: "
                 "TypeError(\"expected a JSON boolean, got '77777777777777777777...\")\n")),
        ("cert.json", _certificate_with("tz_window"), ("verify", "cert.json"),
         (2, "", "error: certificate field 'tz_window' is malformed: "
                 "TypeError(\"expected a pair of integers, got '77777777777777777777...\")\n")),
        # prooflab's rationals: Fraction(text) ran 17.7 s on 1e3000000, then
        # gave CPython's advice; 1/0 was a ZeroDivisionError traceback, and x
        # an "Invalid literal for Fraction" naming no option
        (None, None, (*QLEMMA, "--alpha", "1e3000000"), (2, "", f"error: --alpha 1e3000000 {RATIONAL}\n")),
        (None, None, (*QLEMMA, "--alpha", "1/0"), (2, "", f"error: --alpha 1/0 {RATIONAL}\n")),
        (None, None, (*QLEMMA, "--alpha", "x"), (2, "", f"error: --alpha x {RATIONAL}\n")),
        (None, None, ("prooflab", "qlemma", "--coeffs", LONG, "1", "--alpha", "1"),
         (2, "", f"error: --coeffs 777777777777777777777... {PAST_LIMIT}\n")),
        # a matrix cell is echoed by repr, so an empty one shows as ''
        (None, None, ("prooflab", "fixedpoint", "--matrix", "0,1;1/0,0"),
         (2, "", f"error: --matrix '1/0' {RATIONAL}\n")),
        (None, None, ("prooflab", "fixedpoint", "--matrix", "0,1;1e3000000,0"),
         (2, "", f"error: --matrix '1e3000000' {RATIONAL}\n")),
        (None, None, ("prooflab", "fixedpoint", "--matrix", ",;,"), (2, "", f"error: --matrix '' {RATIONAL}\n")),
        (None, None, (*QLEMMA, "--alpha", "3/2"),
         (0, "degree  predicted_degree  leading  predicted_leading  pass\n"
             "5       5                 -216     -216               True\n", "")),
        # a non-integer: CPython's "invalid literal for int()", or "malformed lrs line", with no line
        ("e.curve", "curve 0 3\npoint 1 x 1\n", ("eds", "gen", "--curve-file", "e.curve"),
         (2, "", "error: e.curve:2: x must be an integer\n")),
        ("claim.lrs", "\nlrs 2 1 1 1 1.5\n", ("lrs", "eval", "--lrs-file", "claim.lrs", "--n", "3"),
         (2, "", "error: claim.lrs:2: 1.5 must be an integer\n")),
        ("terms.txt", "1\n2\nthree\n", FIT, (2, "", "error: terms.txt:3: three must be an integer\n")),
    ],
    ids=[
        "lrs-file-comment", "terms-file-comment", "config-long", "curve-file-long", "lrs-file-long",
        "terms-file-long", "verify-long", "verify-long-version", "verify-long-flag", "verify-long-window",
        "alpha-exponent", "alpha-zero-denominator", "alpha-word", "coeffs-long", "matrix-zero-denominator",
        "matrix-exponent", "matrix-empty-cell", "alpha-ratio", "curve-file-bad", "lrs-file-bad", "terms-file-bad",
    ],
)
def test_one_reader_for_text_from_outside(tmp_path, capsys, monkeypatch, name, text, argv, expected):
    monkeypatch.chdir(tmp_path)
    if name:
        (tmp_path / name).write_text(text(LONG) if callable(text) else text)
    result = run(capsys, *argv)
    assert result == expected and len(result[2]) < 200


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        ("e.curve", "curve 1\n", ("eds", "gen", "--curve-file", "e.curve"),
         "e.curve:1: expected 'curve A B' or 'point x y z'"),
        ("e.curve", "curve 0 3\npoint 1 2\n", ("eds", "gen", "--curve-file", "e.curve"),
         "e.curve:2: expected 'curve A B' or 'point x y z'"),
        ("claim.lrs", "lrs 2 1 1 1\n", ("lrs", "eval", "--lrs-file", "claim.lrs", "--n", "3"),
         "claim.lrs:1: expected 4 integers after the order, got 3"),
        ("claim.lrs", "# Fibonacci\nlrs 2 1 1 1 1\nlrs 1 1 1\n", ("lrs", "eval", "--lrs-file", "claim.lrs", "--n", "3"),
         "claim.lrs:3: expected one line 'lrs k c1..ck u1..uk'"),
        ("claim.lrs", "# no recurrence\n", ("lrs", "eval", "--lrs-file", "claim.lrs", "--n", "3"),
         "claim.lrs: expected one line 'lrs k c1..ck u1..uk'"),
    ],
    ids=["curve-1", "point-1-2", "short-lrs", "second-lrs", "no-lrs"],
)
def test_a_line_of_the_wrong_shape_is_named_by_file_and_line(tmp_path, capsys, monkeypatch, name, text, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("--lrs", "33", *"1" * 66), None, f"--lrs: the order 33 must be at least 1 and at most {cli.MAX_LRS_ORDER}"),
        # a negative order said "expected -4 integers after the order"
        (("--lrs", "-2", "1", "1"), None, f"--lrs: the order -2 must be at least 1 and at most {cli.MAX_LRS_ORDER}"),
        (("--lrs-file", "claim.lrs"), f"lrs 40 {' 1' * 80}\n",
         f"claim.lrs:1: the order 40 must be at least 1 and at most {cli.MAX_LRS_ORDER}"),
    ],
    ids=["flag", "negative", "file"],
)
def test_a_recurrence_past_the_order_bound_exit2_before_any_work(tmp_path, capsys, monkeypatch, argv, text, message):
    monkeypatch.chdir(tmp_path)
    if text:
        (tmp_path / "claim.lrs").write_text(text)
    monkeypatch.setattr(lrs, "is_degenerate", _refuse)
    assert run(capsys, "lrs", "degenerate", *argv) == (2, "", f"error: {message}\n")


def test_falsify_no_counterexample_exit3(capsys):
    # find an index where the sequences agree up to sign, then scan only it
    from edslab.eds import generate_geometric
    from edslab.elliptic import CurveQ, PointQ
    from edslab.lrs import FIBONACCI, eval_mod

    curve, point, p = CurveQ(-4, 4), PointQ(1, 1, 1), 7
    geo = generate_geometric(curve, point, 60)
    agreeing = next(
        n for n in range(1, 61)
        if (geo.term(n) - eval_mod(FIBONACCI, n * n, p)) % p == 0
        or (geo.term(n) + eval_mod(FIBONACCI, n * n, p)) % p == 0
    )
    code, out, _ = run(
        capsys,
        "falsify", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--p", "7",
        "--start", str(agreeing), "--window", "1",
    )
    assert code == 3
    assert "no counterexample" in out


def test_csv_rows_are_as_wide_as_their_header(tmp_path, capsys):
    # the good_reduction detail holds commas
    code, out, _ = run(capsys, *EMPIRICAL, "--x", "500", "--format", "csv")
    assert code == 0
    cert = tmp_path / "cert.json"
    assert run(capsys, *REFUTE, "--p-max", "100", "--out", str(cert))[0] == 0
    code, verified, _ = run(capsys, "verify", str(cert), "--format", "csv")
    assert code == 0
    for text, width in ((out, 12), (verified, 3)):
        rows = list(csv.reader(text.splitlines()))
        assert len(rows) > 1 and {len(row) for row in rows} == {width}, rows
    assert any("," in row[2] for row in rows)  # a detail with a comma stays one cell


def _numbers():
    """(leaf, flag, keywords) for every option of every leaf that takes
    numbers: each with a `_Number`, or with an argparse type=int."""
    return [(path, flag, kwargs) for path, (func, _, options) in cli.COMMANDS.items() if func
            for flag, kwargs, *number in options if number or kwargs.get("type") is int]


def _argv_giving(path: str, flag: str, value: str) -> list[str]:
    """The leaf's argv with `value` in each slot of `flag`, and 1 in each slot
    of every other required option."""
    argv = path.split()
    for option, kwargs, *_ in cli.COMMANDS[path][2]:
        if option == flag or kwargs.get("required"):
            slots = kwargs.get("nargs", 1)
            argv += [option, *[value if option == flag else "1"] * (1 if slots == "+" else slots)]
    return argv


def test_no_option_is_converted_by_argparse():
    # argparse's type=int echoed a refused value whole, and a range of a
    # number option belongs beside it in COMMANDS, read by one pass
    for path, (_, _, options) in cli.COMMANDS.items():
        for flag, kwargs, *_ in options:
            assert "type" not in kwargs, (path, flag)
    assert len(_numbers()) == 57  # 55 integer options and the two rationals of prooflab qlemma


@pytest.mark.parametrize("path, flag, kwargs", _numbers(), ids=[f"{p} {f}" for p, f, _ in _numbers()])
def test_every_number_flag_past_the_print_limit_is_named_in_one_short_line(capsys, path, flag, kwargs):
    # argparse's "invalid int value" echoed all 5,000 digits (5,238 bytes for lrs eval --n)
    try:
        code = main(_argv_giving(path, flag, "7" * 5000))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200 and err.startswith(f"error: {flag} 777"), err[:300]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lrs", "eval", *FIB_ARGS, "--n", "x"), "--n x must be an integer"),
        (("prooflab", "det", "--q", "7", "--betas", "2", "3.5"), "--betas 3.5 must be an integer"),
        (("eds", "period", "--curve", "0", "x", "--point", "1", "2", "1", "--p", "5"), "--curve x must be an integer"),
    ],
)
def test_a_number_flag_that_is_not_an_integer_is_read_by_the_one_reader(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


FIT_TERMS = "1\n1\n2\n3\n5\n8\n"


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_lrs_fit_bound_below_one_names_the_option(capsys, monkeypatch, bound):
    # --bound -5 printed "no integer recurrence of order <= -5 fits the 6 terms" and exited 3
    monkeypatch.setattr(sys, "stdin", io.StringIO(FIT_TERMS))
    monkeypatch.setattr(lrs, "fit_minimal_recurrence", _refuse)
    assert run(capsys, "lrs", "fit", "--bound", bound) == (2, "", f"error: --bound {bound} must be at least 1\n")


def test_lrs_fit_bound_below_one_in_the_config_names_the_key(tmp_path, capsys, monkeypatch):
    config = tmp_path / "edslab.conf"
    config.write_text("bound = -5\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(FIT_TERMS))
    monkeypatch.setattr(lrs, "fit_minimal_recurrence", _refuse)
    assert run(capsys, "lrs", "fit", "--config", str(config)) == (
        2, "", f"error: bound = -5 in {config} must be at least 1\n"
    )


@pytest.mark.parametrize(
    "argv, name, bound",
    [
        (("prooflab", "det", "--q", "7", "--betas"), "det_beta_identity", cli.MAX_DET_BETAS),
        (("prooflab", "qlemma", "--alpha", "2", "--coeffs"), "expand_q", cli.MAX_QLEMMA_COEFFS),
    ],
    ids=["det", "qlemma"],
)
def test_a_list_past_its_count_bound_exit2_before_any_work(capsys, monkeypatch, argv, name, bound):
    # neither list had a bound, and the work of each grows fast with its count
    monkeypatch.setattr(prooflab, name, _refuse)
    flag = argv[-1]
    message = f"error: {flag} has {bound + 1} values, more than the bound {bound}\n"
    assert run(capsys, *argv, *["2"] * (bound + 1)) == (2, "", message)


def test_prooflab_det_at_its_count_bound_runs(capsys, monkeypatch):
    seen = []

    def stand_in(betas, q):
        seen.append(betas)
        return prooflab.DetBetaResult(0, 0, None, True)

    monkeypatch.setattr(prooflab, "det_beta_identity", stand_in)
    betas = [str(b) for b in range(2, cli.MAX_DET_BETAS + 2)]
    assert run(capsys, "prooflab", "det", "--q", "7", "--betas", *betas)[0] == 0
    assert seen == [list(range(2, cli.MAX_DET_BETAS + 2))]
