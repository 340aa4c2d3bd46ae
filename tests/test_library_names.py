"""Every top-level function and class in src/edslab must be named somewhere
else in the library, be imported by the acceptance criteria, or be a
public name of the package; and every member a class in src/edslab
defines (a method, property or field) must be read somewhere in the
library or by the acceptance criteria.  Otherwise only the tests run it,
or nothing does, and it belongs in the tests or nowhere.  Likewise every
parameter with a default must be passed by some call in the library: a
default no caller overrides is a constant, not an option; and every name a
module imports from another must be defined there and used where imported."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edslab"

# "module.name", "module.Class.member" or "module.function(parameter)" -> why
# it stays with no library caller
KEPT = {
    "cli._HelpFormatter._max_help_position": "read by argparse.HelpFormatter, which it overrides",
    "cli.main(argv)": "the console-script entry point, called with no argv; the tests pass it",
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
        elif isinstance(sub, ast.ImportFrom):
            home = sub.module.rsplit(".", 1)[-1] if sub.module else "__init__"  # from . import name
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


def _fields_reads(func: ast.FunctionDef) -> set[str]:
    """The names `cli._fields(obj, "name", ...)` reads with getattr in the
    function, given one by one or as a tuple starred from a name assigned in it."""
    tuples = {
        node.targets[0].id: node.value.elts
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Tuple)
    }
    read = set()
    for call in ast.walk(func):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_fields":
            for arg in call.args[1:]:
                names = tuples.get(arg.value.id, []) if isinstance(arg, ast.Starred) else [arg]
                read.update(name.value for name in names if isinstance(name, ast.Constant))
    return read


def _read_members(trees) -> set[str]:
    """Attribute names read (`obj.name`) in the trees, and those `_fields` reads.

    `args.name` reads the argparse namespace, not a class member, so it does
    not count.  The rule still cannot tell two same-named members of classes
    in src/edslab apart: a field is counted as read when any attribute of its
    name is, so `seq.term` counts as a read of a `term` field of any class."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read |= _fields_reads(node)
    return read


def _members(cls: ast.ClassDef) -> list[str]:
    names = []
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.append(item.target.id)
        elif isinstance(item, ast.Assign):
            names.extend(t.id for t in item.targets if isinstance(t, ast.Name))
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _unread_members() -> list[str]:
    modules = _modules()
    read = _read_members([*modules.values(), ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())])
    return [
        f"{module}.{top.name}.{name}"
        for module, tree in modules.items()
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for name in _members(top)
        if name not in read
    ]


def _defaulted(func: ast.FunctionDef, offset: int) -> list[tuple[str, int | None]]:
    """(name, position in a call, or None for keyword-only) of each parameter
    of func with a default; offset skips the self or cls a method call binds."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    named = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    return named + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call gives the parameter a value: by keyword, at its
    position, or through *args, which counts as every positional one."""
    if any(k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _unpassed_defaults() -> list[str]:
    """module.function(parameter) for each defaulted parameter that no call
    in the library passes.  A call is matched to a function by name alone, so
    a call to any same-named function or method counts, and `C(...)` counts
    as a call of `C.__init__`."""
    modules = _modules()
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in modules.items():
        # a method's class (src/edslab has no staticmethod, so each binds self or cls)
        methods = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(func))
            callers = calls.get(cls if func.name == "__init__" else func.name, [])
            for name, position in _defaulted(func, 1 if cls else 0):
                if not any(_passes(call, name, position) for call in callers):
                    unpassed.append(f"{module}.{func.name}({name})")
    return unpassed


def test_every_library_name_has_a_caller_outside_the_tests():
    orphans = set(_orphans())
    assert orphans - set(KEPT) == set(), sorted(orphans - set(KEPT))


def test_every_class_member_is_read_outside_the_tests():
    unread = set(_unread_members())
    assert unread - set(KEPT) == set(), sorted(unread - set(KEPT))


def test_every_default_is_passed_by_a_library_call():
    unpassed = set(_unpassed_defaults())
    assert unpassed - set(KEPT) == set(), sorted(unpassed - set(KEPT))


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level: functions, classes and
    assigned names, not the names it imports."""
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _misplaced_imports() -> list[str]:
    """module: from .home import name, for each relative import of a name
    that home does not define at its top level (it passes on an import) or
    that the importing module never uses.  `from . import eds`, an import of
    a submodule, is exempt."""
    modules = _modules()
    defined = {module: _top_level_names(tree) for module, tree in modules.items()}
    misplaced = []
    for module, tree in modules.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            home = node.module or "__init__"
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    continue
                if alias.name not in defined[home] or (alias.asname or alias.name) not in used:
                    misplaced.append(f"{module}: from .{node.module or ''} import {alias.name}")
    return misplaced


def test_every_import_names_its_home_module_and_is_used():
    # a name imported through a module that only imports it itself hides
    # where it lives, and an unused import keeps a dependency nothing needs
    assert _misplaced_imports() == []


# (importing module, home module, name) -> why a private name crosses
# modules.  The package helpers of edslab/__init__.py (`from . import
# _span`) are shared by design and not listed.  The table only shrinks: an
# entry whose import is gone must leave it.
PRIVATE_IMPORTS = {
    ("refuter", "eds", "_period_horizon"): "the window end that certificates and eds period state, which verify bounds",
    ("eds", "elliptic", "_companion_gcd"): "Ayad's gcd picks how z_n comes from w_n, in generation and the cache check",
    ("eds", "elliptic", "_last_doubling"): "geometric_term reads its three terms off the ladder's last doubling",
    ("eds", "elliptic", "_z_from_w"): "generate_geometric and geometric_term turn w_n into z_n as scalar_mul does",
}


def _private_imports() -> set[tuple[str, str, str]]:
    """(module, home, name) for each `from .home import _name` between src/edslab modules."""
    return {
        (module, node.module, alias.name)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_every_private_name_that_crosses_modules_is_listed_with_its_reason():
    # a private name imported elsewhere is part of two modules' design; an
    # unlisted one is a new coupling, and a listed one no longer made is stale
    imports = _private_imports()
    assert imports - set(PRIVATE_IMPORTS) == set(), sorted(imports - set(PRIVATE_IMPORTS))
    assert set(PRIVATE_IMPORTS) - imports == set(), sorted(set(PRIVATE_IMPORTS) - imports)


def test_every_kept_name_still_exists_and_still_lacks_a_caller():
    # an exception that gains a caller, or leaves the library, is dropped here
    assert set(KEPT) <= {*_orphans(), *_unread_members(), *_unpassed_defaults()}


def test_the_order_test_has_one_caller_the_scan_of_the_witness_class():
    # find_witness and empirical_density both scan through
    # elliptic.order_class_primes, and neither imports the order test
    users = {
        (module, getattr(top, "name", type(top).__name__))
        for module, tree in _modules().items()
        for top in tree.body
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "q_divides_order")
        or (isinstance(node, ast.Attribute) and node.attr == "q_divides_order")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "q_divides_order" for alias in node.names))
    }
    assert users == {("elliptic", "order_class_primes")}


# "module.function" -> why it may open a file: user text is read in cli alone
OPENERS = {
    "eds.save_sequence": "writes the sequence cache, the program's own format",
    "eds._read_cached": "reads the sequence cache back",
}


def test_only_the_cli_opens_a_file():
    # every text a user gives goes through one line reader and one integer
    # conversion in cli; a library module that opened a file would read it
    # past them
    openers = {
        f"{module}.{top.name}"
        for module, tree in _modules().items()
        if module != "cli"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) in ("open", "fdopen"))
    }
    assert openers == set(OPENERS), sorted(openers)


def test_one_module_reads_cpythons_refusal_of_a_long_number():
    # `edslab._int` is the one integer conversion of text from outside: a
    # second module that matched CPython's int-to-str refusal would be a
    # second reader, with its own wording of the limit
    holders = [path.name for path in sorted(SRC.glob("*.py")) if "integer string conversion" in path.read_text()]
    assert holders == ["__init__.py"]
