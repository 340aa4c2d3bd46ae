import csv
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from edslab import cli, eds, lrs, ntkernel, refuter
from edslab.cli import build_parser, main
from edslab.elliptic import CurveQ, PointQ
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
    # hashlib (OpenSSL) and tempfile are loaded by the cache functions only;
    # each library module, and the dataclasses, fractions and json it needs,
    # by the first command that runs it
    # shutil (with bz2, lzma and zlib) by the first help or usage text rendered
    loaded = _modules_after()
    assert not {"hashlib", "tempfile", "dataclasses", "fractions", "decimal", "inspect", "json", "shutil"} & loaded
    assert _library(loaded) == {"edslab", "edslab.cli"}


def test_lrs_eval_loads_only_the_recurrence_modules():
    loaded = _modules_after(*LRS_EVAL)
    assert _library(loaded) == {"edslab", "edslab.cli", "edslab.lrs", "edslab.ntkernel"}
    assert not {"shutil", "json"} & loaded


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


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    # in a fresh interpreter: build_parser() builds the top-level and group
    # parsers only, and a command builds its own parser once
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
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert edslab.cli.main(sys.argv[1:]) == 0\n"
        "    print(*built[5:], sep=',')\n"
    )
    assert _python("-c", probe, *LRS_EVAL).stdout.splitlines() == [
        "edslab,edslab eds,edslab lrs,edslab density,edslab prooflab",
        "edslab lrs eval",
        "edslab lrs eval",
    ]

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
    ],
    ids=[
        "missing_key", "short_window", "mismatch_without_z_mod", "top_level_list",
        "flag_as_string", "flag_as_integer",
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


EMPIRICAL = ("density", "empirical", "--curve", "0", "3", "--point", "1", "2", "1", "--q", "3")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_density_empirical_jobs_below_one_exit2(capsys, jobs):
    code, out, err = run(capsys, *EMPIRICAL, "--x", "1000", "--jobs", jobs)
    assert code == 2
    assert not out
    assert err == f"error: --jobs {jobs} must be at least 1\n"


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
    # (0,3), (1,2,1), Fibonacci, q = 5 has no witness: the scan stops at
    # MAX_WITNESS_P, not at --p-max, and the message names the bound it used
    monkeypatch.setattr(refuter, "MAX_WITNESS_P", 1_000)
    code, _, err = run(
        capsys,
        "refute", "--curve", "0", "3", "--point", "1", "2", "1",
        "--lrs", "2", "1", "1", "1", "1", "--q", "5", "--p-max", "100000",
    )
    assert code == 3
    assert err.startswith("no witness prime <= 1000; per-condition counts:\n")
    assert "  scanned: 168\n" in err


def test_falsify(capsys):
    code, out, _ = run(
        capsys,
        "falsify", "--curve", "-4", "4", "--point", "1", "1", "1",
        "--lrs", "2", "1", "1", "1", "1", "--p", "7", "--window", "40",
    )
    assert code == 0
    assert out.strip()


OUTSIDE_COMPANION_MODEL = ("--curve", "0", "17", "--point", "-2", "3", "1")  # gcd(2y, 3x^2 + a) = 6


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("eds", "period", *OUTSIDE_COMPANION_MODEL, "--p", "7"), id="argv0"),
        pytest.param(
            ("falsify", *OUTSIDE_COMPANION_MODEL, "--lrs", "2", "1", "1", "1", "1", "--p", "7"),
            id="argv2",
        ),
    ],
)
def test_point_outside_companion_model_exit2(capsys, argv):
    # both answer about z_n mod p itself, which here is not z_1*|w_n| mod p
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert "singular modulo [2, 3]" in err


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
    # the period mod 317 exceeds lrs.MAX_WALK: x^t mod chi reads it, and no
    # state window is built
    monkeypatch.setattr(lrs, "deque", _refuse)
    code, out, err = run(
        capsys, "lrs", "period", "--lrs", "4", "5", "1", "-1", "-3", "-3", "5", "-5", "0", "--p", "317",
        "--method", "iteration",
    )
    assert (code, out) == (2, "")
    assert err == f"error: the recurrence mod 317 does not return within {lrs.MAX_WALK} steps\n"


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
    monkeypatch.setattr(lrs, "generate", _refuse)
    monkeypatch.setattr(refuter, "ladder_block", _refuse)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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


def test_reduction_decimates_past_the_decimate_bound(capsys, monkeypatch):
    # the bound is on the --m option; the reduction's own decimation by M^2 = 4 passes it
    monkeypatch.setattr(cli, "MAX_DECIMATE_M", 1)
    code, out, _ = run(
        capsys, "lrs", "degenerate", "--lrs", "2", "0", "1", "0", "2", "--reduce", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["reduction_m"] == 2


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
    assert json.loads(out)["ell"] == 1


def test_prooflab_fixedpoint(capsys):
    code, out, _ = run(
        capsys,
        "prooflab", "fixedpoint", "--matrix", "1/3,1/3,1/3;1/3,1/3,1/3;1/3,1/3,1/3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["eigenspace_dim"] == 1


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
