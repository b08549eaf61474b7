"""Each dnalg module uses only the public names of the others: no module
imports an underscore name from another dnalg module.  And every
``functools`` cache decorates a module-level function, so that emptying the
caches found in the modules' namespaces (as the benchmark does before each
job) empties them all."""

import ast
import importlib
import pathlib

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
    "polytopes": ["binary_trees", "delete_leaf", "_type_vertices"],
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
