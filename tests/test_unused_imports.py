"""Every module of the package, the test suite and the benchmark reads each
name it imports, or marks the import ``# noqa: F401``: a static scan with
``ast``, so no linter is needed."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/slevolve", "tests", "bench")


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


def test_scan_finds_unused_names():
    source = ("import os\nimport numpy as np\nimport scipy.linalg\n"
              "from a import b, c as d\n__all__ = ['b']\n"
              "scipy.linalg.expm(1)\nimport sys  # noqa: F401\n")
    assert unused_imports(source) == [(1, "os"), (2, "np"), (4, "d")]


def test_no_unused_imports():
    found = []
    for folder in SCANNED:
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(os.path.join(ROOT, path)) as fh:
                    found += [f"{path}:{line}: {bound}"
                              for line, bound in unused_imports(fh.read())]
    assert not found, "imported and never used: " + ", ".join(found)
