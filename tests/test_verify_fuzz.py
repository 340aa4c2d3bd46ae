"""A seeded fuzz of `verify` with a differential check.

Mutants of two `refute` certificates, each one edit away from the original
(a value replaced, a key or a row deleted, a list grown), go through
`cli.main(["verify", path])`.  Each must exit 0, 2, 3 or 4 within 1 s with no
exception escaping, and every mutant `verify` accepts is re-checked by
`bench/oracle.py`, which imports no edslab: q divides the order of P mod p,
q does not divide the period of n -> u_(n^2) mod p, and each listed row
recomputes and is a mismatch.  An acceptance the oracle refutes is a
soundness defect of the verifier.
"""

import contextlib
import copy
import importlib.util
import io
import json
import random
import time
from pathlib import Path

import pytest

from edslab import cli

ROOT = Path(__file__).resolve().parent.parent
ORACLE = ROOT / "bench" / "oracle.py"

REFUTE = ("refute", "--curve", "-4", "4", "--point", "1", "1", "1", "--lrs", "2", "1", "1", "1", "1")
# the witness p = 7 of q = 5, the finder's own choice, and p = 223 of q = 13
CLAIMS = {7: (), 223: ("--q", "13")}
# an oracle walk per row: far past the verifier's largest mismatch index
ORACLE_MAX_INDEX = 10_000


def _oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def _least_period(values: list, period: int, oracle) -> int:
    """Least d dividing `period` with values shifted by d equal to values."""
    least = period
    for ell in oracle.factor(period):
        while least % ell == 0 and all(values[n] == values[(n + least // ell) % period] for n in range(period)):
            least //= ell
    return least


def _num(value) -> int:
    return int(str(value))  # as verify reads each integer field


def _oracle_refutes(payload: dict, oracle) -> list[str]:
    """What the oracle finds wrong with an accepted certificate; empty when it stands."""
    a, b = _num(payload["curve"]["a"]), _num(payload["curve"]["b"])
    x, y, z = (_num(payload["point"][k]) for k in "xyz")
    p, q = _num(payload["p"]), _num(payload["q"])
    coeffs = tuple(map(_num, payload["lrs"]["coeffs"]))
    initial = tuple(map(_num, payload["lrs"]["initial"]))
    facts = {
        "p and q are primes": max(p, q) < 10**12 and oracle.factor(p) == [p] and oracle.factor(q) == [q],
        "P is an integral point in the model": z == 1 and y * y == x**3 + a * x + b and oracle.in_model(a, x, y),
        "p is a good prime": (4 * a**3 + 27 * b**2) * 2 * y * coeffs[-1] % p != 0,
    }
    if not all(facts.values()):
        return [name for name, ok in facts.items() if not ok]
    order = oracle.point_order(a, x, y, p, oracle.count_points(a, b, p))
    lam = oracle.lrs_period(coeffs, initial, p)
    u = oracle.lrs_terms(coeffs, initial, lam, p)  # u_1..u_lam, one period of u mod p
    tu = _least_period([u[(n * n - 1) % lam] for n in range(lam)], lam, oracle)
    wrong = [f"q={q} does not divide the order {order}"] * (order % q != 0)
    wrong += [f"q={q} divides the period {tu} of u_(n^2)"] * (tu % q == 0)
    rows = [(_num(m["n"]), _num(m["z_mod"]), _num(m["u_mod"])) for m in payload["mismatches"]]
    if not rows or not all(1 <= n <= ORACLE_MAX_INDEX for n, _, _ in rows):
        return [*wrong, f"rows {rows} are empty or past the oracle's walk"]
    w = oracle.eds_terms(a, b, x, y, max(n for n, _, _ in rows), p)  # W_n = +-z_n mod p
    for n, z_mod, u_mod in rows:
        w_n, u_n = w[n - 1], u[(n * n - 1) % lam]
        if z_mod not in (w_n, -w_n % p) or u_mod != u_n:
            wrong.append(f"row {n}: ({z_mod}, {u_mod}) is not (+-{w_n}, {u_n})")
        elif (w_n - u_n) % p == 0 or (w_n + u_n) % p == 0:
            wrong.append(f"row {n}: z_n = +-u_(n^2) mod {p}")
    return wrong


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _replacements(rng: random.Random, old) -> list:
    """Every value a leaf or a container is replaced by: the one-digit strings
    (so each small prime is tried at every key), a longer digit string, +-1,
    x 10^k, 200 nines, `1e5`, empty, null, booleans, a float, lists and a
    bare JSON integer."""
    try:
        n = int(old)
    except (TypeError, ValueError):
        n = rng.randrange(100)
    digits = str(rng.randrange(10 ** rng.randrange(2, 12)))
    scaled = str(n * 10 ** rng.randrange(1, 30))
    strings = [*map(str, range(10)), digits, str(n + 1), str(n - 1), scaled, "9" * 200, "1e5", ""]
    return [*strings, None, True, False, n + 0.5, [], [str(n)], n]


def _mutants(payload: dict, rng: random.Random):
    """(what, mutant) for every replacement at every path, every deleted key or
    row, and every list grown by 1 to 50 copies of its rows."""
    for path in _paths(payload):
        old = _at(payload, path)
        if path:
            for value in _replacements(rng, old):
                mutant = copy.deepcopy(payload)
                _at(mutant, path[:-1])[path[-1]] = value
                yield f"{path} = {value!r:.40}", mutant
            mutant = copy.deepcopy(payload)
            del _at(mutant, path[:-1])[path[-1]]
            yield f"del {path}", mutant
        if isinstance(old, list):
            mutant = copy.deepcopy(payload)
            grown = rng.randrange(1, 51)
            _at(mutant, path).extend(copy.deepcopy(rng.choice(old)) if old else "1" for _ in range(grown))
            yield f"{path} grown by {grown}", mutant


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    out = {}
    for p, claim in CLAIMS.items():
        path = tmp_path_factory.mktemp("cert") / f"p{p}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*REFUTE, *claim, "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["p"] == str(p)
        out[p] = payload
    return out


@pytest.mark.parametrize("p", CLAIMS)
def test_verify_survives_every_mutant_and_accepts_only_sound_ones(certificates, tmp_path, p):
    oracle, rng = _oracle(), random.Random(p)
    path, exits, unsound = tmp_path / "mutant.json", {}, []
    assert _oracle_refutes(certificates[p], oracle) == []
    for what, mutant in _mutants(certificates[p], rng):
        path.write_text(json.dumps(mutant))
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", str(path)])
        took = time.perf_counter() - start
        assert code in (0, 2, 3, 4) and took < 1, (what, code, took)
        exits[code] = exits.get(code, 0) + 1
        if code == 0:
            unsound += [(what, wrong) for wrong in _oracle_refutes(mutant, oracle)]
    assert unsound == []
    # the draw reaches acceptance, the parser's refusals and the checks' failures
    assert exits.get(0, 0) > 0 and exits.get(2, 0) > 0 and exits.get(4, 0) > 0, exits
