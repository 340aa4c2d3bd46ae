"""Elliptic divisibility sequences, integer linear recurrences, finite-group
densities, and machine-checkable witness-prime certificates.

`import edslab` loads no submodule: each public name imports its home
module when it is first used (PEP 562).  Nor does tracing: `_span` writes
its JSON lines, and imports `json`, only while `_TRACING` is on."""

import os
import sys
import time
from contextlib import contextmanager, nullcontext

__version__ = "0.1.0"

# The one tracing switch, set by EDSLAB_TRACE=1 at import and read by `_span`
# as each span opens.  A span of a run without tracing costs one test of it
# and one null context, writes nothing and loads no json
_TRACING = os.environ.get("EDSLAB_TRACE") == "1"
_open: list[str] = []  # names of the spans open in this process, innermost last

# public name -> the submodule that defines it
_HOMES = {
    "CurveQ": "elliptic",
    "PointQ": "elliptic",
    "EdsSequence": "eds",
    "WardSeed": "eds",
    "generate_geometric": "eds",
    "generate_ward": "eds",
    "LrsSpec": "lrs",
    "fit_minimal_recurrence": "lrs",
    "WitnessCertificate": "refuter",
    "find_witness": "refuter",
    "verify_certificate": "refuter",
}

__all__ = [*_HOMES, "__version__"]


def _span(name: str, **fields):
    """A context that gives its block the fields dict, to which the block can add.  When
    tracing, a span: as the block ends, normally or not, it writes one JSON line on stderr,
    {"span": name, "parent": enclosing span or null, "start": s, "s": seconds, ...fields},
    on the `time.perf_counter` clock.  Otherwise it writes nothing."""
    return _write_span(name, fields) if _TRACING else nullcontext(fields)


@contextmanager
def _write_span(name: str, fields: dict):
    parent = _open[-1] if _open else None
    _open.append(name)
    start = time.perf_counter()
    try:
        yield fields
    finally:
        record = {"span": name, "parent": parent, "start": start, "s": time.perf_counter() - start, **fields}
        _open.pop()
        import json

        sys.stderr.write(json.dumps(record, default=str) + "\n")


def _print_limit() -> int:
    # from 3.10.7 on, CPython converts no int of more digits to or from str (0: no limit)
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _unprintable(what: str, limit: int) -> ValueError:
    """The one wording, for the CLI and the certificate reader, of a value past the limit."""
    return ValueError(f"{what} has more than {limit} digits, the int-to-str limit (PYTHONINTMAXSTRDIGITS)")


def _clip(value) -> str:
    """The value as an error echoes it: its start, if it is long."""
    text = str(value)
    return text if len(text) <= 24 else text[:21] + "..."


def _int(text: str, named: str, must: str = "be an integer") -> int:
    """int(text), else a ValueError naming the value by its source: `--flag v`, `FILE:LINE: v`, ..."""
    try:
        return int(text)
    except ValueError as exc:
        if "integer string conversion" in str(exc):  # CPython's refusal past its int-to-str limit
            raise _unprintable(named, _print_limit()) from None
        raise ValueError(f"{named} must {must}") from None


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
