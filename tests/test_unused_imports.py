"""Every name a package module imports is used in that module, so a deletion
cannot leave its imports behind.  __init__.py is left out: its imports are
the package's re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """The names that source binds by import and never reads, in import
    order; `from __future__ import ...` binds nothing."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import pi, tau\n"
        "def f() -> j.JSONDecoder:\n    return os.path.join(str(pi))\n"
    )
    assert unused_imports(source) == ["tau"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "hypernull").glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
