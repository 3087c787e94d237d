"""Static checks on the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pairstab"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name.

    ``from __future__`` imports are directives, not bindings, and are skipped.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_checker_flags_unused_imports():
    source = "import os.path\nimport sys\nfrom a import b as c, d\nc(sys.argv)\n"
    assert _unused_imports(source) == ["d", "os"]


def test_no_unused_imports():
    # __init__.py imports to re-export, so its names are used by callers
    unused = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}
