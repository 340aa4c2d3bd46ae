"""Every example of the README's "Command line" block runs and exits 0,
its table of option ranges is the one `cli.COMMANDS` declares, and its
module table names every module of the package."""

import codecs
import io
import math
import pathlib
import re
import shlex
import sys

from edslab import cli
from edslab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_module_table_names_every_module():
    section = README.read_text().split("\n## What is inside\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^\| `edslab\.(\w+)` \|", section, re.MULTILINE))
    modules = {path.stem for path in (README.parent / "src" / "edslab").glob("*.py")} - {"__init__"}
    assert named == modules


def readme_examples() -> list[tuple[list[str], str | None]]:
    """(argv, stdin text or None) for each `edslab` line of the first sh block
    after "## Command line"; a `printf '...' |` prefix gives the stdin text."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        stdin = None
        if " | edslab " in line:
            feed, line = line.split(" | ", 1)
            command, fmt = shlex.split(feed)
            assert command == "printf", feed
            stdin = codecs.decode(fmt, "unicode_escape")
        if line.startswith("edslab "):
            examples.append((shlex.split(line)[1:], stdin))
    return examples


def test_every_readme_example_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EDSLAB_CACHE", raising=False)
    examples = readme_examples()
    assert len(examples) >= 20
    assert any(stdin for _, stdin in examples)
    for argv, stdin in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0, (argv, err)


def _cell(text: str) -> int | None:
    """A range cell as an integer: '' (none), '3', '1,000', '10^20' or '50 values'."""
    base, _, exponent = text.removesuffix(" values").replace(",", "").partition("^")
    return int(base) ** int(exponent or 1) if base else None


def test_the_readme_states_each_declared_range_once():
    rows = {}  # option -> (least, largest, whether it counts values), from the README's table
    table = README.read_text().split("| option | least | largest | constant |\n|---|---|---|---|\n", 1)[1]
    for line in table.split("\n\n", 1)[0].splitlines():
        option, least, largest, constant = (cell.strip() for cell in line.strip("|").split("|"))
        assert option not in rows, option
        if constant:
            assert getattr(cli, constant.strip("`").removeprefix("cli.")) == _cell(largest), option
        rows[option] = (_cell(least), _cell(largest), largest.endswith(" values"))
    declared = {}
    for path, (_, _, options) in cli.COMMANDS.items():
        for flag, _, *number in options:
            if not number:
                continue
            (number,) = number
            least, largest = number.least, min(number.most, number.count)
            if least > -math.inf or largest < math.inf:
                declared[f"`{path} {flag}`"] = (
                    least if least > -math.inf else None,
                    largest if largest < math.inf else None,
                    number.count < math.inf,
                )
    assert rows == declared
