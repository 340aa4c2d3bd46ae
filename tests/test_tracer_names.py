"""Every function `bench/tracer.py` wraps must exist where it looks for it:
otherwise only a traced benchmark run notices that a name left the library."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert {"eds", "lrs", "elliptic"} <= set(tracer.TRACED)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"edslab.{layer}"), name, None))
    ]
    assert not missing, missing
