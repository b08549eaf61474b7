"""dnalg runs on the standard library alone: no module imports a third-party
package, and the project declares no runtime dependency."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dnalg"


def absolute_imports(path: pathlib.Path) -> list[str]:
    """The top-level name of every absolute import in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_modules_import_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    outside = {
        (path.name, name)
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert outside == set()


def test_no_runtime_dependency_is_declared():
    # Read as text: tomllib is not in Python 3.10, which pyproject allows.
    text = (ROOT / "pyproject.toml").read_text()
    lines = [
        line for line in text.splitlines()
        if line.split("=")[0].strip() == "dependencies"
    ]
    assert lines == ["dependencies = []"]
