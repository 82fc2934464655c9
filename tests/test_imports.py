"""No module of the package imports a name it never uses.

A stdlib ``ast`` pass in the spirit of pyflakes' F401: every name an import
binds must be read somewhere in the module or listed in its ``__all__``.  An
import statement marked ``# noqa: F401`` is a deliberate binding and is
skipped.  ``__init__.py`` is exempt: its imports are the package namespace.
"""

import ast
from pathlib import Path

import pytest

import calabi

MODULES = sorted(p for p in Path(calabi.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = (
        "import os\n"
        "import json\n"
        "from math import pi, tau  # noqa: F401\n"
        "from pathlib import (\n"
        "    Path,\n"
        "    PurePath,\n"
        ")\n"
        "__all__ = ['Path']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 4: PurePath"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
