"""Opt-in tracing: JSON lines on stderr.

Tracing is on when EDSLAB_TRACE=1 is set as this module is imported;
otherwise `span` and `count` write nothing.  Each line is one JSON object:

- a span, written when its block ends, normally or not:
  {"span": name, "parent": enclosing span or null, "start": s, "s": seconds, ...fields},
  with `start` on the process's `time.perf_counter` clock;
- a count: {"count": name, "n": n}.

json is imported when the first line is written, not with this module.
The command line goes further: it tests EDSLAB_TRACE itself and imports
this module only when it is set (see `cli._span`).
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

ENV = "EDSLAB_TRACE"
ENABLED = os.environ.get(ENV) == "1"

_open: list[str] = []  # names of the spans open in this process, innermost last


def _write(record: dict) -> None:
    import json

    sys.stderr.write(json.dumps(record, default=str) + "\n")


@contextmanager
def span(name: str, **fields):
    """Time the block and, when tracing is on, write one line as it ends."""
    if not ENABLED:
        yield
        return
    parent = _open[-1] if _open else None
    _open.append(name)
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds = time.perf_counter() - start
        _open.pop()
        _write({"span": name, "parent": parent, "start": start, "s": seconds, **fields})


def count(name: str, n: int = 1) -> None:
    """Record n more of `name` when tracing is on."""
    if ENABLED:
        _write({"count": name, "n": n})
