"""The whole option surface of every leaf subcommand, pinned: option strings
in order with dest, default, required, nargs, choices, type, metavar and help,
the leaf's help text and its handler; the config-file keys, each the dest
of a pinned option; and the help and usage text of the top level, of each
group and of `refute`, at two terminal widths.  A change to how the parser
is built must leave all of it as it is."""

import argparse
from pathlib import Path

import pytest

from edslab import cli
from edslab.cli import COMMANDS, CONFIG_KEYS, build_parser, main

COMMON = [
    ("-h --help", "help", argparse.SUPPRESS, False, 0, None, None, None, "show this help message and exit"),
    ("--config", "config", None, False, None, None, None, None, "key=value config file"),
    ("--format", "format", None, False, None, ("table", "json", "csv"), None, None, None),
]
CURVE_POINT = [
    ("--curve", "curve", None, False, 2, None, None, ("A", "B"), None),
    ("--point", "point", None, False, 3, None, None, ("X", "Y", "Z"), None),
    ("--curve-file", "curve_file", None, False, None, None, None, None, "file with 'curve A B' and 'point x y z' lines"),
]
LRS_SOURCE = [
    ("--lrs", "lrs", None, False, "+", None, None, "N", "k c1..ck u1..uk"),
    ("--lrs-file", "lrs_file", None, False, None, None, None, None, None),
]
GROUPS = {
    "eds": "divisibility sequence generation and analysis",
    "lrs": "linear recurrence engine",
    "density": "matrix and affine densities, empirical scans",
    "prooflab": "executable lemma checks",
}
# leaf -> (help, handler, options after COMMON)
LEAVES = {
    "eds gen": (
        "generate z_n from a curve and point",
        "cmd_eds_gen",
        [
            *CURVE_POINT,
            ("--n", "n", None, False, None, None, None, None, None),
            ("--stride", "stride", None, False, None, None, None, None, "list z_(stride*n) instead of z_n"),
            ("--cache-dir", "cache_dir", None, False, None, None, None, None, None),
        ],
    ),
    "eds ward": (
        "extend four seed values by the bilinear recurrences",
        "cmd_eds_ward",
        [
            ("--seed", "seed", None, True, 4, None, None, ("W1", "W2", "W3", "W4"), None),
            ("--n", "n", None, False, None, None, None, None, None),
        ],
    ),
    "eds period": (
        "minimal period of the companion w_n modulo p; z_n = z_1*|w_n| agrees up to sign if gcd(2y, 3x^2 + a*z^4) = 1",
        "cmd_eds_period",
        [
            *CURVE_POINT,
            ("--p", "p", None, True, None, None, None, None, None),
        ],
    ),
    "eds zsigmondy": (
        "primitive divisor scan",
        "cmd_eds_zsigmondy",
        [
            *CURVE_POINT,
            ("--n", "n", None, False, None, None, None, None, None),
        ],
    ),
    "lrs fit": (
        "minimal integer recurrence from terms (one per line)",
        "cmd_lrs_fit",
        [
            ("--terms-file", "terms_file", None, False, None, None, None, None, None),
            ("--bound", "bound", None, False, None, None, None, None, None),
        ],
    ),
    "lrs eval": (
        "evaluate u_n exactly or modulo p",
        "cmd_lrs_eval",
        [
            *LRS_SOURCE,
            ("--n", "n", None, True, None, None, None, None, None),
            ("--mod", "mod", None, False, None, None, None, None, None),
        ],
    ),
    "lrs decimate": (
        "spec for the subsequence u_(m*n)",
        "cmd_lrs_decimate",
        [
            *LRS_SOURCE,
            ("--m", "m", None, True, None, None, None, None, None),
        ],
    ),
    "lrs degenerate": (
        "root-of-unity ratio detection",
        "cmd_lrs_degenerate",
        [
            *LRS_SOURCE,
            ("--reduce", "reduce", False, False, 0, None, None, None, "also emit the decimated reduction"),
        ],
    ),
    "lrs period": (
        "minimal period modulo p",
        "cmd_lrs_period",
        [
            *LRS_SOURCE,
            ("--p", "p", None, True, None, None, None, None, None),
            ("--method", "method", "matrix", False, None, ("matrix", "iteration"), None, None, None),
            ("--squares", "squares", False, False, 0, None, None, None, "also report the square-sampled period"),
        ],
    ),
    "density gl2": (
        "exact trace/determinant density",
        "cmd_density_gl2",
        [
            ("--q", "q", None, True, None, None, None, None, None),
            ("--a", "a", None, True, None, None, None, None, None),
            ("--b", "b", None, True, None, None, None, None, None),
        ],
    ),
    "density affine": (
        "exact affine density with translation part",
        "cmd_density_affine",
        [
            ("--q", "q", None, True, None, None, None, None, None),
            ("--a", "a", None, True, None, None, None, None, None),
            ("--b", "b", None, True, None, None, None, None, None),
        ],
    ),
    "density empirical": (
        "prime-scan frequency beside the exact density",
        "cmd_density_empirical",
        [
            *CURVE_POINT,
            ("--q", "q", None, True, None, None, None, None, None),
            ("--a", "a", None, False, None, None, None, None, None),
            ("--x", "x", None, False, None, None, None, None, "prime bound"),
            ("--jobs", "jobs", None, False, None, None, None, None, "worker processes for the prime scan"),
            ("--exclude", "exclude", None, False, None, None, None, None, "comma-separated primes to skip in the scan"),
        ],
    ),
    "refute": (
        "find a witness prime and write a certificate",
        "cmd_refute",
        [
            *CURVE_POINT,
            *LRS_SOURCE,
            ("--q", "q", None, False, None, None, None, None, None),
            ("--a", "a", None, False, None, None, None, None, "trace target (default 3)"),
            ("--p-max", "p_max", None, False, None, None, None, None, None),
            ("--out", "out", None, False, None, None, None, None, "certificate output path (default: stdout)"),
            ("--exclude", "exclude", None, False, None, None, None, None, "comma-separated primes to skip in the scan"),
        ],
    ),
    "verify": (
        "re-check a certificate file from scratch",
        "cmd_verify",
        [
            (None, "certificate", None, True, None, None, None, None, None),
        ],
    ),
    "falsify": (
        "mismatch indices beyond a claimed threshold",
        "cmd_falsify",
        [
            *CURVE_POINT,
            *LRS_SOURCE,
            ("--p", "p", None, True, None, None, None, None, None),
            ("--start", "start", None, False, None, None, None, None, None),
            ("--window", "window", None, False, None, None, None, None, None),
        ],
    ),
    "prooflab qlemma": (
        "degree/leading-coefficient expansion check",
        "cmd_prooflab_qlemma",
        [
            ("--coeffs", "coeffs", None, True, "+", None, None, None, "P ascending from the constant term"),
            ("--alpha", "alpha", None, True, None, None, None, None, None),
        ],
    ),
    "prooflab det": (
        "determinant factorization check",
        "cmd_prooflab_det",
        [
            ("--q", "q", None, True, None, None, None, None, None),
            ("--betas", "betas", None, True, "+", None, None, None, None),
        ],
    ),
    "prooflab resclass": (
        "admissible residue count",
        "cmd_prooflab_resclass",
        [
            ("--r", "r", None, True, None, None, None, None, None),
            ("--t", "t", None, True, None, None, None, None, None),
            ("--c", "c", None, False, None, None, None, None, None),
        ],
    ),
    "prooflab ell": (
        "quadratic congruence lift",
        "cmd_prooflab_ell",
        [
            ("--r", "r", None, True, None, None, None, None, None),
            ("--e", "e", None, False, None, None, None, None, None),
            ("--n0", "n0", None, True, None, None, None, None, None),
            ("--j", "j", None, True, None, None, None, None, None),
            ("--c", "c", None, True, None, None, None, None, None),
        ],
    ),
    "prooflab fixedpoint": (
        "stochastic fixed-point collision check",
        "cmd_prooflab_fixedpoint",
        [
            ("--matrix", "matrix", None, True, None, None, None, None, "rows ';'-separated, entries ','-separated"),
        ],
    ),

}


def _option(action):
    return (
        " ".join(action.option_strings) or None,
        action.dest,
        action.default,
        action.required,
        action.nargs,
        action.choices,
        action.type,
        action.metavar,
        action.help,
    )


def _leaves(parser, path=()):
    """(name, help, subparser) for every leaf below the parser, in order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for name, sub in action.choices.items():
                if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
                    assert helps[name] == GROUPS[name]
                    yield from _leaves(sub, (*path, name))
                else:
                    yield " ".join((*path, name)), helps[name], sub


def test_every_leaf_keeps_its_options_in_order():
    leaves = list(_leaves(build_parser()))
    assert [name for name, _, _ in leaves] == list(LEAVES)
    for name, help_text, sub in leaves:
        expected_help, handler, options = LEAVES[name]
        assert help_text == expected_help, name
        assert sub.get_default("func").__name__ == handler, name
        assert [_option(a) for a in sub._actions] == COMMON + options, name


def test_each_way_of_reading_a_subcommand_map_gives_the_same_parsers():
    # on a tree of its own, not the shared one: its maps hold paths, and
    # give each parser from the one builder on its lookup
    top = next(a for a in build_parser.__wrapped__()._actions if isinstance(a, argparse._SubParsersAction))
    parsers = list(top.choices.values())
    assert all(isinstance(parser, argparse.ArgumentParser) for parser in parsers)
    assert parsers == [top.choices[name] for name in top.choices] == [parser for _, parser in top.choices.items()]


def test_every_config_key_is_a_pinned_option():
    # a retired flag takes its config key with it
    assert CONFIG_KEYS == {"format", "cache_dir", "p_max", "q", "a", "jobs", "exclude", "bound", "n", "x"}
    dests = {option[1] for _, _, options in LEAVES.values() for option in COMMON + options}
    assert CONFIG_KEYS <= dests


HELP_TEXT = Path(__file__).with_name("cli_help.txt")
PINNED_ARGV = [
    ("--help",),
    *((group, "--help") for group in GROUPS),
    ("refute", "--help"),
    ("bogus",),
    ("eds", "bogus"),
    ("eds", "gen", "--bogus", "3"),
]


def _pinned_text() -> dict[str, str]:
    """heading -> text of each section of cli_help.txt"""
    sections: dict[str, str] = {}
    heading = None
    for line in HELP_TEXT.read_text().splitlines(keepends=True):
        if line.startswith("### "):
            heading = line[4:].rstrip("\n")
            sections[heading] = ""
        elif heading is not None:
            sections[heading] += line
    return sections


@pytest.mark.parametrize("columns", [60, 120])
@pytest.mark.parametrize("argv", PINNED_ARGV, ids=" ".join)
def test_help_and_usage_text_is_pinned(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert not (out and err)
    stream = "stdout" if out else "stderr"
    heading = f"edslab {' '.join(argv)} | COLUMNS={columns} | exit {exc.value.code} | {stream}"
    pinned = _pinned_text()
    assert heading in pinned
    assert out + err == pinned[heading]


# subcommand -> the rest of one valid argv for it, as the README runs it
VALID_ARGV = {
    "eds gen": "--curve 0 3 --point 1 2 1 --n 20",
    "eds ward": "--seed 1 1 -1 1 --n 10",
    "eds period": "--curve 0 3 --point 1 2 1 --p 5 --format json",
    "eds zsigmondy": "--curve 0 3 --point 1 2 1 --n 20",
    "lrs fit": "",
    "lrs eval": "--lrs 2 1 1 1 1 --n 1000000 --mod 5",
    "lrs decimate": "--lrs 2 1 1 1 1 --m 2",
    "lrs degenerate": "--lrs 2 0 1 0 2 --reduce --format json",
    "lrs period": "--lrs 2 1 1 1 1 --p 5 --squares",
    "density gl2": "--q 3 --a 0 --b 2",
    "density affine": "--q 5 --a 3 --b 2",
    "density empirical": "--curve -4 4 --point 1 1 1 --q 5 --x 20000 --jobs 4",
    "refute": "--curve -4 4 --point 1 1 1 --lrs 2 1 1 1 1 --q 5 --out cert.json",
    "verify": "cert.json",
    "falsify": "--curve -4 4 --point 1 1 1 --lrs 2 1 1 1 1 --p 7 --window 50",
    "prooflab qlemma": "--coeffs 0 -1/2 --alpha -3",
    "prooflab det": "--q 7 --betas 2 3",
    "prooflab resclass": "--r 11 --t 1",
    "prooflab ell": "--r 7 --n0 1 --j 3 --c 1",
    "prooflab fixedpoint": "--matrix 1/3,1/3,1/3;1/3,1/3,1/3;1/3,1/3,1/3",
}
# what a subcommand's parser refuses, or takes in a form other than the plain one
EDGE_ARGV = [
    "lrs eval --lrs 2 1 1 1 1 --n 5 --bogus",  # an unknown option
    "lrs eval --lrs 2 1 1 1 1 --n 5 extra",  # a word no option takes
    "lrs eval --lrs 2 1 1 1 1 --n=5",
    "lrs eval --lrs 2 1 1 1 1 --n 5 --form json",  # abbreviated options
    "lrs period --lrs 2 1 1 1 1 --p 5 --m iteration",
    "lrs eval --lr 2 1 1 1 1 --n 5",  # an ambiguous one: --lrs or --lrs-file
    "lrs eval --lrs 2 1 1 1 1 --n 5 --format xml",
    "lrs eval --lrs 2 1 1 1 1 --mod 7",  # no --n
    "lrs eval --lrs 2 1 1 1 1 -- --n 5",
    "lrs eval -- --lrs 2 1 1 1 1 --n 5",
    "lrs eval --n",
    "lrs eval --help",
    "verify",
    "verify a b",
]


def _outcome(parse, argv, capsys):
    """The namespace argv parses to, less the command's name, or what the parse exits with."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()
    return {key: value for key, value in vars(args).items() if key not in ("command", "subcommand")}


@pytest.mark.parametrize("columns", [60, 120])
@pytest.mark.parametrize(
    "argv", [f"{path} {rest}".split() for path, rest in VALID_ARGV.items()] + [line.split() for line in EDGE_ARGV],
    ids=" ".join,
)
def test_a_subcommand_parses_alone_as_it_does_in_the_tree(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    alone = _outcome(lambda argv: cli._parse(argv)[1], argv, capsys)
    assert alone == _outcome(build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("path,rest", VALID_ARGV.items())
def test_a_valid_argv_is_parsed_by_the_parser_of_its_subcommand_alone(path, rest):
    command, args = cli._parse(f"{path} {rest}".split())
    assert command == path and not hasattr(args, "command")


def test_every_subcommand_has_a_valid_argv():
    assert list(VALID_ARGV) == [path for path, (func, _, _) in COMMANDS.items() if func]
