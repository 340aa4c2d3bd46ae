"""Timing wrappers installed from outside the program.

Each traced function is replaced by a wrapper at every name the package's
modules look it up by (``refuter.count_points`` and
``galois_density.count_points`` are separate names for
``elliptic.count_points``), and uninstalled afterwards.  A wrapper records
a span (name, request, start, end, parent) in memory, plus the work counts
its arguments or result carry.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("ntkernel", "elliptic", "eds", "lrs", "galois_density", "refuter", "prooflab", "cli")


def _find_witness_counts(args, r):
    s = r.stats
    return {
        "refuter.primes_scanned": s["scanned"],
        "refuter.point_counts": s["scanned"] - s["excluded"] - s["divides_invariants"] - s["residue_class"],
        "refuter.candidates": s["candidates"],
        "refuter.certified": r.found,
    }


# layer -> function -> None, or a function of (args, result) giving the work
# counts one call adds
TRACED = {
    "ntkernel": {"factorize": None, "sieve_primes": None},
    "elliptic": {
        "count_points": lambda args, r: {"elliptic.count_points.p_sum": args[0].p},
        "point_order_fp": None,
        "scalar_mul": None,
        "is_torsion": None,
    },
    "eds": {
        "stream_mod_p": lambda args, r: {"eds.stream_mod_p.terms": args[2]},
        "generate_geometric": lambda args, r: {"eds.generate_geometric.terms": args[2]},
        "save_sequence": None,
        "load_sequence": lambda args, r: {"eds.load_sequence.hits": r is not None},
    },
    "lrs": {
        "square_sampled_period": lambda args, r: {"lrs.square_sampled_period.lambda_sum": r.lrs_period},
        "lrs_period_mod_p": None,
        "eval_mod": None,
        "is_degenerate": None,
        "nondegenerate_reduction": None,
        "decimate": None,
        "fit_minimal_recurrence": None,
    },
    "galois_density": {
        "empirical_density": lambda args, r: {
            "galois_density.primes_scanned": r.empirical.scanned,
            "galois_density.hits": r.empirical.hits,
        },
        "count_affine": None,
    },
    "refuter": {"find_witness": _find_witness_counts, "verify_certificate": None},
    "cli": {"main": None},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, request, start, end, parent index)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        modules = [importlib.import_module(f"edslab.{m}") for m in MODULES]
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"edslab.{layer}")
            for fname, counter in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, self.request, start, end, parent)
            counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per function name, less the time of the child spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out
