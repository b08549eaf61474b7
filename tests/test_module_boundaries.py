"""Each dnalg module uses only the public names of the others: no module
imports an underscore name from another dnalg module.  And every
``functools`` cache decorates a module-level function, so that emptying the
caches found in the modules' namespaces (as the benchmark does before each
job) empties them all.  Only ``fp.Record`` defines ``__eq__`` or ``__hash__``.
Every name the benchmark's tracer wraps exists.  The Adem system has one
home: outside ``steenrod`` only ``truncated.adem_residues`` calls
``adem_relation``, and only ``truncated.frobenius`` writes the square-free
Frobenius image.  Starting the CLI does not import ``dataclasses``."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dnalg"


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: pathlib.Path) -> list[str]:
    """Every underscore name one module imports from dnalg, as module.name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "dnalg":
            continue
        for alias in node.names:
            if any(private(part) for part in module.split(".") + [alias.name]):
                found.append(f"{module}.{alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    offenders = {path.name: private_imports(path) for path in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_guard_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from . import __version__\n"
        "from .dn import max_dn, _sweep\n"
        "from dnalg.truncated import _adem_normal_form\n"
        "from ._hidden import x\n"
        "from os import _exit\n"
    )
    assert private_imports(module) == [
        "dn._sweep", "dnalg.truncated._adem_normal_form", "_hidden.x",
    ]


EQUALITY_METHODS = {"__eq__", "__hash__"}


def equality_definitions(path: pathlib.Path) -> list[str]:
    """Every class in one module that defines or assigns ``__eq__`` or
    ``__hash__``, as Class.method."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name}" for name in names if name in EQUALITY_METHODS]
    return found


def test_only_record_defines_equality():
    # Every compared class inherits fp.Record's pair and defines _key().
    found = {path.name: equality_definitions(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: defs for name, defs in found.items() if defs} == {
        "fp.py": ["Record.__eq__", "Record.__hash__"],
    }


def test_the_equality_guard_sees_methods_and_assignments(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    __hash__ = None\n"
        "class B(A):\n"
        "    def _key(self):\n"
        "        return ()\n"
        "    class Inner:\n"
        "        def __hash__(self):\n"
        "            return 0\n"
        "def __eq__(a, b):\n"
        "    return a is b\n"
    )
    assert equality_definitions(module) == ["A.__eq__", "A.__hash__", "Inner.__hash__"]


BENCH = PACKAGE.parent.parent / "bench"


def unresolved(functions) -> list[str]:
    """The entries of a tracing table that name nothing the tracer can wrap:
    a module attribute, or for ``Class.method`` a method in the class's own
    ``__dict__`` (which is what ``tracing.install`` replaces)."""
    missing = []
    for _, module_name, attr in functions:
        owner = importlib.import_module(module_name)
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    return missing


def test_every_name_the_benchmark_wraps_resolves(monkeypatch):
    # Import the benchmark's tracing table without writing into bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    assert len(tracing.FUNCTIONS) >= 30
    assert unresolved(tracing.FUNCTIONS) == []


def test_the_wrapped_name_guard_sees_missing_names():
    table = [
        ("x", "dnalg.truncated", "induced_q_map"),
        ("x", "dnalg.truncated", "QSpace"),
        ("x", "dnalg.truncated", "AlgebraPresentation.act"),
        ("x", "dnalg.truncated", "AlgebraPresentation.project"),
        ("x", "dnalg.truncated", "QSpace.project"),
        ("x", "dnalg.fp", "FpMatrix.__eq__"),  # inherited from Record
    ]
    assert unresolved(table) == [
        "dnalg.truncated.QSpace",
        "dnalg.truncated.AlgebraPresentation.project",
        "dnalg.truncated.QSpace.project",
        "dnalg.fp.FpMatrix.__eq__",
    ]


def sites(path: pathlib.Path, matches) -> list[str]:
    """The qualified name of the innermost function or class around each
    node of one module that ``matches``, as module.name, in source order."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if matches(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def calls_adem_relation(node: ast.AST) -> bool:
    """A call of ``adem_relation``, bare or as an attribute."""
    return isinstance(node, ast.Call) and "adem_relation" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def frobenius_image(node: ast.AST) -> bool:
    """Either half of the square-free Frobenius image: a square-free test,
    ``max(...)`` compared with 1 or 2, or a comprehension that multiplies
    each item by ``p``."""
    if isinstance(node, ast.Compare):
        left = node.left
        return (
            isinstance(left, ast.Call)
            and getattr(left.func, "id", None) == "max"
            and any(isinstance(c, ast.Constant) and c.value in (1, 2) for c in node.comparators)
        )
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        elt = node.elt
        return (
            isinstance(elt, ast.BinOp)
            and isinstance(elt.op, ast.Mult)
            and "p" in (getattr(elt.left, "id", None), getattr(elt.right, "id", None))
        )
    return False


def test_the_adem_system_has_one_home():
    modules = sorted(PACKAGE.glob("*.py"))
    outside = [path for path in modules if path.stem != "steenrod"]
    relation = [site for path in outside for site in sites(path, calls_adem_relation)]
    assert relation == ["truncated.adem_residues"]
    frobenius = [site for path in modules for site in sites(path, frobenius_image)]
    assert frobenius == ["truncated.frobenius", "truncated.frobenius"]


def test_the_adem_system_guard_sees_copies(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from dnalg import steenrod\n"
        "from dnalg.steenrod import adem_relation\n"
        "class Kernel:\n"
        "    def power(self, p, g):\n"
        "        def closed(e):\n"
        "            return tuple(p * x for x in e)\n"
        "        return {closed(e): c for e, c in g.items() if max(e) <= 1}\n"
        "def sweep(p, a, b, terms):\n"
        "    for e1 in terms:\n"
        "        if max(e1) > 1:\n"
        "            continue\n"
        "    return [x * p for x in terms], steenrod.adem_relation(p, a, b)\n"
        "words = adem_relation(3, 1, 1)\n"
        "ok = max(words) <= 3 and [2 * x for x in words]\n"
    )
    assert sites(module, calls_adem_relation) == ["m.sweep", "m"]
    assert sites(module, frobenius_image) == [
        "m.Kernel.power.closed", "m.Kernel.power", "m.sweep", "m.sweep",
    ]


CACHE_DECORATORS = {"lru_cache", "cache"}


def is_cache_name(node: ast.AST) -> bool:
    """``lru_cache`` or ``cache``, bare or as an attribute of ``functools``."""
    if isinstance(node, ast.Name):
        return node.id in CACHE_DECORATORS
    return (
        isinstance(node, ast.Attribute)
        and node.attr in CACHE_DECORATORS
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def module_level_caches(path: pathlib.Path) -> tuple[list[str], list[int]]:
    """The module-level functions a functools cache decorates, and the line of
    every other use of such a cache (on a method, a nested function, or
    called directly)."""
    tree = ast.parse(path.read_text(), str(path))
    cached, allowed = [], set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in stmt.decorator_list:
                if is_cache_name(dec.func if isinstance(dec, ast.Call) else dec):
                    cached.append(stmt.name)
                    allowed.update(map(id, ast.walk(dec)))
    misplaced = [
        node.lineno
        for node in ast.walk(tree)
        if is_cache_name(node) and id(node) not in allowed
    ]
    return cached, misplaced


# Every cached function, per module in source order: a cache added or lost
# must show here.
CACHED_NAMES = {
    "polytopes": ["binary_trees", "delete_leaf", "_type_vertices", "_drop_letter"],
    "steenrod": ["adem_relation", "_normal_form"],
    "truncated": ["adem_instances", "_adem_normal_form"],
}


def test_every_cache_decorates_a_module_level_function():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        cached, misplaced = module_level_caches(path)
        assert misplaced == [], path.name
        module = importlib.import_module(f"dnalg.{path.stem}")
        for name in cached:
            # the name is not rebound, so the module's namespace holds the cache
            assert callable(getattr(vars(module)[name], "cache_clear", None)), name
        if cached:
            found[path.stem] = cached
    assert found == CACHED_NAMES


def test_the_cache_guard_sees_misplaced_caches(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def top(x):\n"
        "    @functools.cache\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner(x)\n"
        "@cache\n"
        "def bare(x):\n"
        "    return x\n"
        "class C:\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def method(self):\n"
        "        return 1\n"
        "wrapped = lru_cache(maxsize=None)(len)\n"
    )
    assert module_level_caches(module) == (["top", "bare"], [5, 13, 16])


def loaded_modules(statement: str) -> list[str]:
    """The sorted ``sys.modules`` names after running one import statement in
    a fresh interpreter that skips ``site`` (-S), so no site hook imports
    anything first."""
    code = f"{statement}; import json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_import_skips_dataclasses_and_the_package_loads_every_module():
    # The records are plain classes: importing dataclasses pulls in inspect,
    # ast, dis and tokenize, and its decorators exec their methods at import,
    # a large share of a short CLI call.
    cli = loaded_modules("import dnalg.cli")
    assert "dnalg.cli" in cli
    assert [name for name in ("dataclasses", "inspect") if name in cli] == []
    # import dnalg still loads every module, so the functools caches it holds
    # are in sys.modules for whoever empties them.
    package = [name for name in loaded_modules("import dnalg") if name.split(".")[0] == "dnalg"]
    assert package == [
        "dnalg", "dnalg.dn", "dnalg.fp", "dnalg.polytopes", "dnalg.steenrod",
        "dnalg.theorems", "dnalg.truncated",
    ]
    assert {f"dnalg.{name}" for name in CACHED_NAMES} <= set(package)
