"""Opt-in tracing: JSON lines on stderr.

The library reaches `span` only through `edslab._span`, which reads the one
switch, `edslab._TRACING`, as each span opens; EDSLAB_TRACE=1 sets the
switch as the package is imported.  Each line is one JSON object, a span,
written when its block ends, normally or not:
{"span": name, "parent": enclosing span or null, "start": s, "s": seconds, ...fields},
with `start` on the process's `time.perf_counter` clock, and with the
fields the block added to the dict the span gives as it is entered.  A
block counts in locals and adds the counts as fields of its span.

json is imported when the first line is written, not with this module.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

_open: list[str] = []  # names of the spans open in this process, innermost last


@contextmanager
def span(name: str, **fields):
    """Time the block and write one line as it ends.  Gives the block the
    span's fields, to which it can add."""
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
