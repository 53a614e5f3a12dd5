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


def _spans():
    """SPANS of the benchmark tracer, read without importing it."""
    tracer = SRC.parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["SPANS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no SPANS")


def test_every_public_name_has_a_caller():
    """No public top-level function or class of the package is there only
    for its tests: each is referenced elsewhere in src/, or is a benchmark
    span."""
    statements = []
    public = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.asname or sub.name)
            statements.append((node, names))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public.append((path.stem, node))
    spans = {".".join(name.split(".")[:2]) for name in _spans()}
    uncalled = ["%s.%s" % (module, node.name) for module, node in public
                if "%s.%s" % (module, node.name) not in spans
                and not any(node.name in names
                            for other, names in statements
                            if other is not node)]
    assert not uncalled, "only tests call: " + ", ".join(uncalled)
