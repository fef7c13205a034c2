"""Source hygiene: no unused imports, and no dead definitions in the package.

Each module under ``src/clustersol/``, ``tests/`` and ``scripts/`` is parsed with
``ast``.  A name bound by an import statement must be read somewhere in
the same file (or listed in its ``__all__``).  Package ``__init__.py``
files are exempt: their imports are re-exports.

Every function, class and method defined in ``src/clustersol/``, and
every name a module assigns at its top level, must be read by name (a
name or an attribute; for a method, an attribute) somewhere in the
package, or be exported in ``__init__.__all__``; dunders, ``__all__``
among them, are exempt.  Code
that only the tests use belongs in ``tests/``.  Every ``__slots__`` entry and
``NamedTuple`` field of a class in ``src/clustersol/`` must be read as an
attribute somewhere in the package.  The checks match by name, so a dead
method or field that shares its name with a live attribute is not seen.

No function defined inside another function in ``src/clustersol/`` may
read its own name: it would hold itself through its closure cell, a
reference cycle that only the cyclic collector frees (README, "Warm
runs").
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/clustersol", "tests", "scripts") for p in (ROOT / d).glob("*.py")
               if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/clustersol").glob("*.py"))


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


def _all_names(tree):
    return {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in ast.walk(node.value)
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}


def dead_definitions(sources):
    """(file, line, name) of each definition in sources that none of them reads.

    sources maps file names to module text; names in an ``__init__.py``
    ``__all__`` count as read.  A method counts as read only through an
    attribute, so a local variable of its name does not hide it.
    """
    defined, in_class, methods = {}, set(), set()
    read, attrs = set(), set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        if fname == "__init__.py":
            read |= _all_names(tree)
        for node in ast.walk(tree):             # breadth first: a class before its methods
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if isinstance(node, ast.ClassDef):
                    in_class.update(node.body)
                if not (node.name.startswith("__") and node.name.endswith("__")
                        or node.name in defined):
                    defined[node.name] = (fname, node.lineno)
                    if node in in_class:
                        methods.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
        for node in tree.body:                  # module-level names bound by assignment
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not (name.id.startswith("__") and name.id.endswith("__")):
                    defined.setdefault(name.id, (fname, node.lineno))
    return sorted(where + (name,) for name, where in defined.items()
                  if name not in attrs and (name in methods or name not in read))


def _is_named_tuple(cls):
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               or isinstance(b, ast.Attribute) and b.attr == "NamedTuple" for b in cls.bases)


def _declared_fields(cls):
    """(line, name) of each ``__slots__`` entry and ``NamedTuple`` field of a class."""
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)):
            yield from ((stmt.lineno, elt.value) for elt in ast.walk(stmt.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
        elif (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and _is_named_tuple(cls)):
            yield stmt.lineno, stmt.target.id


def dead_fields(sources):
    """(file, line, Class.field) of each declared field that no source reads as an attribute."""
    declared, read = [], set()
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                declared += [(fname, line, node.name, name)
                             for line, name in _declared_fields(node)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((fname, line, f"{cls}.{name}")
                  for fname, line, cls, name in declared if name not in read)


def self_reading_closures(source):
    """(line, name) of each function defined inside a function that reads its own name."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(outer):
                if (node is not outer and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                                and n.id == node.name for n in ast.walk(node))):
                    found.add((node.lineno, node.name))
    return sorted(found)


def test_scan_sees_the_modules():
    names = {p.name for p in FILES}
    assert {"tame.py", "clusters.py", "test_hygiene.py", "ab_pairs.py"} <= names


def test_unused_imports_are_detected():
    src = "import os\nimport sys as system\nfrom a.b import c, d\nimport e.f\nd(e.f)\n"
    assert unused_imports(src) == [(1, "os"), (2, "system"), (3, "c")]
    assert unused_imports("import os\n__all__ = ['os']\n") == []


def test_dead_definitions_are_detected():
    sources = {
        "__init__.py": "from .a import f\n__all__ = ['f']\n",
        "a.py": ("def f(): pass\n"
                 "def g(): pass\n"
                 "def h(): return k\n"
                 "def k(): pass\n"
                 "class C:\n"
                 "    def __repr__(self): return self.m()\n"
                 "    def m(self): pass\n"
                 "    def unused(self): pass\n"
                 "    def shadowed(self): pass\n"
                 "g = 1\n"
                 "_PART = 'x'\n"
                 "_RE, (_A, _B) = f(_PART), (1, 2)\n"
                 "__version__: str = '1'\n"
                 "_SEEN: int = _A\n"),
        "b.py": "def h2(): pass\nx.h\nprint(_RE)\ndef h3(shadowed): return shadowed\nh3(1)\n",
    }
    assert dead_definitions(sources) == [
        ("a.py", 2, "g"), ("a.py", 5, "C"), ("a.py", 8, "unused"), ("a.py", 9, "shadowed"),
        ("a.py", 12, "_B"), ("a.py", 14, "_SEEN"), ("b.py", 1, "h2")]
    fields = {
        "a.py": ("class S:\n"
                 "    __slots__ = ('x', 'y', 'z')\n"
                 "    def __init__(self): self.x = self.y = self.z = 0\n"
                 "    def __eq__(self, o): return getattr(self, 'z') == o.x\n"
                 "class T(NamedTuple):\n"
                 "    u: int\n"
                 "    v: int = 0\n"
                 "class U(typing.NamedTuple):\n"
                 "    w: int\n"
                 "class V:\n"
                 "    k: int\n"),
        "b.py": "t.u\nu.w.x\n",
    }
    assert dead_fields(fields) == [
        ("a.py", 2, "S.y"), ("a.py", 2, "S.z"), ("a.py", 7, "T.v")]


def test_self_reading_closures_are_detected():
    src = ("def top(n):\n"
           "    return top(n - 1) if n else 0\n"
           "def outer():\n"
           "    def walk(n):\n"
           "        return walk(n - 1) if n else 0\n"
           "    def leaf(n):\n"
           "        return n\n"
           "    walk = leaf\n"
           "    return walk(3)\n"
           "class K:\n"
           "    def method(self):\n"
           "        return self.method\n"
           "    def build(self):\n"
           "        def inner():\n"
           "            def innermost():\n"
           "                return innermost\n"
           "            return inner\n"
           "        return inner\n")
    assert self_reading_closures(src) == [(4, "walk"), (14, "inner"), (15, "innermost")]


def test_no_nested_function_reads_its_own_name():
    found = [(p.name, line, name) for p in PACKAGE
             for line, name in self_reading_closures(p.read_text(encoding="utf-8"))]
    assert not found, "nested functions that read their own name: " + ", ".join(
        f"{name} ({fname}:{line})" for fname, line, name in found)


def test_no_dead_definitions():
    dead = dead_definitions({p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert not dead, "defined but never read: " + ", ".join(
        f"{name} ({fname}:{line})" for fname, line, name in dead)


def test_no_dead_fields():
    dead = dead_fields({p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert not dead, "declared but never read: " + ", ".join(
        f"{name} ({fname}:{line})" for fname, line, name in dead)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
