import json

import pytest

from edslab import obs
from test_cli import _python


def _lines(capsys) -> list[dict]:
    captured = capsys.readouterr()
    assert captured.out == ""
    return [json.loads(line) for line in captured.err.splitlines()]


def test_only_edslab_trace_1_turns_tracing_on():
    probe = ("-c", "import edslab.obs; print(edslab.obs.ENABLED)")
    enabled = [_python(*probe, EDSLAB_TRACE=value).stdout for value in ("", "0", "yes", "1")]
    assert enabled == ["False\n", "False\n", "False\n", "True\n"]


def test_nothing_is_written_unless_tracing_is_on(monkeypatch, capsys):
    monkeypatch.setattr(obs, "ENABLED", False)
    with obs.span("outer", k=1):
        pass
    assert _lines(capsys) == []


def test_spans_are_json_lines_on_stderr(monkeypatch, capsys):
    monkeypatch.setattr(obs, "ENABLED", True)
    with obs.span("outer", k=1):
        with obs.span("inner"):
            pass
    inner, outer = _lines(capsys)
    assert (inner["span"], inner["parent"], outer["span"], outer["parent"], outer["k"]) == ("inner", "outer", "outer", None, 1)
    assert outer["start"] <= inner["start"] and 0 <= inner["s"] <= outer["s"]


def test_a_span_is_written_when_its_block_raises(monkeypatch, capsys):
    monkeypatch.setattr(obs, "ENABLED", True)
    with pytest.raises(KeyError):
        with obs.span("failing"):
            raise KeyError("x")
    [record] = _lines(capsys)
    assert record["span"] == "failing" and record["parent"] is None
    with obs.span("next"):
        pass
    assert _lines(capsys)[0]["parent"] is None  # the failed span was closed
