"""Source hygiene: every imported name is used in the file that imports it.

Each module under ``src/clustersol/`` and ``tests/`` is parsed with
``ast``.  A name bound by an import statement must be read somewhere in
the same file (or listed in its ``__all__``).  Package ``__init__.py``
files are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/clustersol", "tests") for p in (ROOT / d).glob("*.py")
               if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by imports in source that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_sees_the_modules():
    names = {p.name for p in FILES}
    assert {"tame.py", "clusters.py", "test_hygiene.py"} <= names


def test_unused_imports_are_detected():
    src = "import os\nimport sys as system\nfrom a.b import c, d\nimport e.f\nd(e.f)\n"
    assert unused_imports(src) == [(1, "os"), (2, "system"), (3, "c")]
    assert unused_imports("import os\n__all__ = ['os']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
