"""Every function `bench/tracer.py` wraps must exist where it looks for it,
be called somewhere in the library outside its own definition, and every
call of it in the library must pass positionally each argument its counter
reads as `args[i]`: otherwise only a traced benchmark run notices that a
name left the library, that its metrics now read 0, or that a call moved to
a keyword."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _traced() -> dict[str, dict]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def _library_calls():
    """(module name, enclosing top-level function or None, call node, called
    name) for each call in src/edslab whose callee is a plain or dotted name."""
    for path in sorted((ROOT / "src" / "edslab").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name is not None:
                    yield path.stem, owner, node, name


def test_every_traced_function_exists_in_its_module():
    traced = _traced()
    assert {"eds", "lrs", "elliptic"} <= set(traced)
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"edslab.{layer}"), name, None))
    ]
    assert not missing, missing


def test_every_traced_function_is_called_in_the_library():
    # a traced function no library code calls would read 0 in every run;
    # a call inside its own definition (recursion) does not count
    traced = _traced()
    called = {name: set() for names in traced.values() for name in names}
    for module, owner, _, name in _library_calls():
        if name in called:
            called[name].add((module, owner))
    uncalled = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not called[name] - {(layer, name)}
    ]
    assert not uncalled, uncalled


def _positional_reads(tree: ast.Module) -> dict[str, int]:
    """For each traced "layer.function" whose counter reads args[i]: the number
    of positional arguments a call must pass, the largest such i plus one."""
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    traced = next(
        node.value for node in tree.body if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED"
    )
    needed = {}
    for layer, functions in zip(traced.keys, traced.values):
        for name, counter in zip(functions.keys, functions.values):
            if isinstance(counter, ast.Name):
                counter = helpers[counter.id]
            if not isinstance(counter, (ast.Lambda, ast.FunctionDef)):
                continue
            args_name = counter.args.args[0].arg
            reads = [
                node.slice.value
                for node in ast.walk(counter)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == args_name
                and isinstance(node.slice, ast.Constant)
            ]
            if reads:
                needed[f"{layer.value}.{name.value}"] = max(reads) + 1
    return needed


def test_traced_arguments_are_passed_positionally():
    needed = _positional_reads(ast.parse(TRACER.read_text()))
    assert {"eds.generate_geometric": 3, "eds.stream_mod_p": 3, "elliptic.count_points": 1}.items() <= needed.items()
    by_name = {qualified.split(".")[1]: count for qualified, count in needed.items()}
    checked, short = set(), []
    for module, _, node, name in _library_calls():
        if name not in by_name:
            continue
        checked.add(name)
        positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
        if len(positional) < by_name[name] and len(positional) == len(node.args):
            short.append(f"{module}.py:{node.lineno}: {name} with {len(positional)} positional arguments")
    assert not short, short
    assert checked == set(by_name)
