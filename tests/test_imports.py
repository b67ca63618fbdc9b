"""Every name a hidpas module imports is used in that module, and every
name hidpas exports is bound.

__init__.py is left out of the first check: it imports names to re-export
them.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hidpas"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda t: t[1])
            if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import IO, Sequence\nx: IO = os.sep\n"
    assert unused_imports(source) == ["line 2: np", "line 3: Sequence"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert MODULES and unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_every_exported_name_is_bound():
    import hidpas

    assert [name for name in hidpas.__all__ if not hasattr(hidpas, name)] == []
    namespace: dict = {}
    exec("from hidpas import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(hidpas.__all__)
