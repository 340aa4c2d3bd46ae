"""Elliptic divisibility sequences, integer linear recurrences, finite-group
densities, and machine-checkable witness-prime certificates.

`import edslab` loads no submodule: each public name imports its home
module when it is first used (PEP 562)."""

__version__ = "0.1.0"

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


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
