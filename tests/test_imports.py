"""Every name a program module imports is used there or listed in its
`__all__`: a leftover import of a deleted call fails here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stallwatch"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but neither reads nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_leftover_import_is_found():
    source = ("import itertools\nimport os.path\nfrom math import ceil as up\n"
              "from .x import y, z\n__all__ = ['z']\nos.path.join(up(y))\n")
    assert unused_imports(source) == ["itertools (line 1)"]
