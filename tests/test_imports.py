"""Every module of the package uses each name it imports (a dead import is
left behind when the code that used it is deleted)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qwalled"


def _unused_imports(source):
    """Names bound by an import statement anywhere in the module and never
    read, in order of appearance."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0]
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in bound if name not in used]


def test_detects_unused_import():
    source = ("from __future__ import annotations\nimport math\n"
              "import os.path\nfrom a import b, c as d\n"
              "print(os.path.sep, d)\n")
    assert _unused_imports(source) == ["math", "b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
