"""Each dnalg module uses only the public names of the others: no module
imports an underscore name from another dnalg module."""

import ast
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
