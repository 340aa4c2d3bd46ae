import json

import pytest

import edslab
from test_cli import _python


def _lines(capsys) -> list[dict]:
    captured = capsys.readouterr()
    assert captured.out == ""
    return [json.loads(line) for line in captured.err.splitlines()]


def _trace(monkeypatch):
    """Turn tracing on in this process, as EDSLAB_TRACE=1 at import would."""
    monkeypatch.setattr(edslab, "_TRACING", True)


def test_only_edslab_trace_1_turns_tracing_on():
    probe = ("-c", "import edslab; print(edslab._TRACING)")
    enabled = [_python(*probe, EDSLAB_TRACE=value).stdout for value in ("", "0", "yes", "1")]
    assert enabled == ["False\n", "False\n", "False\n", "True\n"]


def test_nothing_is_written_unless_tracing_is_on(monkeypatch, capsys):
    monkeypatch.setattr(edslab, "_TRACING", False)
    with edslab._span("outer", k=1) as record:
        assert record is None
    assert _lines(capsys) == []


def test_spans_are_json_lines_on_stderr(monkeypatch, capsys):
    _trace(monkeypatch)
    with edslab._span("outer", k=1):
        with edslab._span("inner"):
            pass
    inner, outer = _lines(capsys)
    assert (inner["span"], inner["parent"], outer["span"], outer["parent"], outer["k"]) == ("inner", "outer", "outer", None, 1)
    assert outer["start"] <= inner["start"] and 0 <= inner["s"] <= outer["s"]


def test_a_span_is_written_when_its_block_raises(monkeypatch, capsys):
    _trace(monkeypatch)
    with pytest.raises(KeyError):
        with edslab._span("failing"):
            raise KeyError("x")
    [record] = _lines(capsys)
    assert record["span"] == "failing" and record["parent"] is None
    with edslab._span("next"):
        pass
    assert _lines(capsys)[0]["parent"] is None  # the failed span was closed


def test_the_switch_is_read_as_each_span_opens(monkeypatch, capsys):
    # in one process, the switch alone turns the library's spans on and off
    from edslab.eds import generate_geometric
    from edslab.elliptic import CurveQ, PointQ

    for tracing, spans in ((True, ["eds.generate_geometric"]), (False, [])):
        monkeypatch.setattr(edslab, "_TRACING", tracing)
        generate_geometric(CurveQ(-4, 4), PointQ(1, 1, 1), 5)
        assert [r["span"] for r in _lines(capsys)] == spans


def test_generate_geometric_writes_one_span_with_its_path(monkeypatch, capsys):
    from edslab.eds import generate_geometric
    from edslab.elliptic import CurveQ, PointQ

    _trace(monkeypatch)
    generate_geometric(CurveQ(-4, 4), PointQ(1, 1, 1), 30)  # gcd(2y, 3x^2 + a*z^4) = 1
    generate_geometric(CurveQ(0, 17), PointQ(-2, 3, 1), 12)  # gcd 3
    records = [(r["span"], r["parent"], r["path"], r["terms"]) for r in _lines(capsys)]
    assert records == [("eds.generate_geometric", None, "ayad", 30), ("eds.generate_geometric", None, "gcd", 12)]


def test_ward_period_writes_one_span_with_its_ladders(monkeypatch, capsys):
    from edslab.eds import division_poly_seeds, ward_period
    from edslab.elliptic import CurveQ, PointQ

    _trace(monkeypatch)
    seeds = division_poly_seeds(CurveQ(0, 3), PointQ(1, 2, 1))
    # (p, r): the ranks 237 = 3*79 and 499,538 = 2*13*19,213; w_238 != 0; w_(711/3) = 0; w_1 != 0
    cases = [(1009, 237), (999_979, 499_538), (1009, 238), (1009, 711), (1009, 1)]
    periods = [ward_period(seeds, p, r) for p, r in cases]
    records = [(r["span"], r["rank"], r["ladders"], r["steps"], r["period"]) for r in _lines(capsys)]
    # steps: 8 + 7 + 2 bits for 237, 79 and 3; 19 + 18 + 16 + 5 for 499,538, 249,769,
    # 38,426 and 26 (the ladder to r/2 is the l = 2 test); 8 for 238; 10 + 8 for 711
    # and 237; one step of the ladder to 1
    assert records == [
        ("eds.ward_period", 237, 3, 17, 17_064),
        ("eds.ward_period", 499_538, 4, 58, 5_741_689_772),
        ("eds.ward_period", 238, 1, 8, None),
        ("eds.ward_period", 711, 2, 18, None),
        ("eds.ward_period", 1, 1, 1, None),
    ]
    assert periods == [17_064, 5_741_689_772, None, None, None]
