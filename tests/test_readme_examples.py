"""Every example of the README's "Command line" block runs and exits 0."""

import codecs
import io
import pathlib
import shlex
import sys

from edslab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
