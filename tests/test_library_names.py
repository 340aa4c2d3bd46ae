"""Every top-level function and class in src/edslab must be named somewhere
else in the library, be imported by the acceptance criteria, or be a
public name of the package: otherwise only the tests run it, or nothing
does, and it belongs in the tests or nowhere."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edslab"

# "module.name" -> why it stays with no library caller
KEPT = {
    "eds.canonical_height_estimate": "a tested API: the height estimate the paper's growth argument reads",
    "obs.count": "the counter half of the tracing module, kept for the library's counters",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _references(module: str, node: ast.AST, modules) -> set[tuple[str, str]]:
    """(home module, name) for each name the node refers to: a bare name is
    taken as one of its own module, `mod.name` and `from .mod import name` as
    one of mod."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add((module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            refs.add((sub.value.id, sub.attr))
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            home = sub.module.rsplit(".", 1)[-1]
            refs.update((home, alias.name) for alias in sub.names)
    return refs


def _acceptance_imports() -> set[tuple[str, str]]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        (node.module.split(".", 1)[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("edslab.")
        for alias in node.names
    }


def _public_names(modules) -> set[tuple[str, str]]:
    homes = next(
        node.value
        for node in modules["__init__"].body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_HOMES"
    )
    return {(home.value, name.value) for name, home in zip(homes.keys, homes.values)}


def _orphans() -> list[str]:
    modules = _modules()
    named = _acceptance_imports() | _public_names(modules)
    # for each reference, the number of top-level statements that make it
    refs = {
        id(node): _references(module, node, modules) for module, tree in modules.items() for node in tree.body
    }
    made_by = Counter(ref for node_refs in refs.values() for ref in node_refs)
    orphans = []
    for module, tree in modules.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if top.name.startswith("__") and top.name.endswith("__"):
                continue  # a hook the interpreter calls, such as a module's __getattr__
            name = (module, top.name)
            # a reference inside the name's own definition (recursion) does not count
            if name not in named and made_by[name] == (name in refs[id(top)]):
                orphans.append(f"{module}.{top.name}")
    return orphans


def test_every_library_name_has_a_caller_outside_the_tests():
    orphans = set(_orphans())
    assert orphans - set(KEPT) == set(), sorted(orphans - set(KEPT))


def test_every_kept_name_still_exists_and_still_lacks_a_caller():
    # an exception that gains a caller, or leaves the library, is dropped here
    assert set(KEPT) <= set(_orphans())
