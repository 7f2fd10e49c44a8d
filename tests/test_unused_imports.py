"""Every module of the package, the test suite and the benchmark reads each
name it imports, or marks the import ``# noqa: F401``, and the package reads
each module-level private name it defines: static scans with ``ast``, so no
linter is needed."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/slevolve", "tests", "bench")
PACKAGE = "src/slevolve"


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import that the module never
    reads: not as a name anywhere in it, nor as a string in ``__all__``,
    unless the import's line carries ``# noqa: F401``."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            read.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    lines = source.splitlines()
    return [(line, name) for line, name in bound
            if name not in read and "# noqa: F401" not in lines[line - 1]]


def private_names(source: str) -> list:
    """(line, name) of each private name (``_x``, dunders excluded) that a
    module defines at its top level: a function, a class or an assigned
    constant."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                found += [(node.lineno, n.id) for n in ast.walk(target)
                          if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set:
    """Every name a module reads: as a name, as an attribute, or through
    ``from ... import``."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        load = isinstance(getattr(node, "ctx", None), ast.Load)
        if isinstance(node, ast.Name) and load:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and load:
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def _sources(folder: str) -> dict:
    out = {}
    for name in sorted(os.listdir(os.path.join(ROOT, folder))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, folder, name)) as fh:
                out[os.path.join(folder, name)] = fh.read()
    return out


def test_scan_finds_unused_names():
    source = ("import os\nimport numpy as np\nimport scipy.linalg\n"
              "from a import b, c as d\n__all__ = ['b']\n"
              "scipy.linalg.expm(1)\nimport sys  # noqa: F401\n")
    assert unused_imports(source) == [(1, "os"), (2, "np"), (4, "d")]


def test_no_unused_imports():
    found = []
    for folder in SCANNED:
        for path, source in _sources(folder).items():
            found += [f"{path}:{line}: {bound}"
                      for line, bound in unused_imports(source)]
    assert not found, "imported and never used: " + ", ".join(found)


def test_scan_finds_orphaned_private_names():
    source = ("_LEFT = 1.5\n_KEPT, _PAIR = 2, 3\n__all__ = []\n"
              "def _helper():\n    return _KEPT\n"
              "class _Box:\n    _inner = 1\n"
              "def public(obj):\n    obj._Box = 0\n    return obj._PAIR\n")
    assert private_names(source) == [(1, "_LEFT"), (2, "_KEPT"),
                                      (2, "_PAIR"), (4, "_helper"),
                                      (6, "_Box")]
    read = names_read(source)
    assert {"_KEPT", "_PAIR"} <= read
    assert not {"_LEFT", "_helper", "_Box"} & read
    assert "_ok" in names_read("from .m import _ok\n")


def test_no_orphaned_private_names():
    # a private name is read somewhere in the package, not only in tests
    sources = _sources(PACKAGE)
    read = set().union(*map(names_read, sources.values()))
    found = [f"{path}:{line}: {name}" for path, source in sources.items()
             for line, name in private_names(source) if name not in read]
    assert not found, "defined and never read: " + ", ".join(found)
