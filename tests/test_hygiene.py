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


def _dead_private_defs(modules: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level ``_``-prefixed function or class
    that nothing outside its own definition refers to.

    A reference is a name in the same module, or an attribute or an import
    of that name anywhere.
    """
    defs, refs = set(), set()
    for mod, source in modules.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_"):
                defs.add((mod, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    refs.add((mod, node.id))
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    refs.add((None, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    refs.update((node.module, a.name) for a in node.names)
    return sorted(f"{m}.{n}" for m, n in defs if not {(m, n), (None, n)} & refs)


def test_checker_flags_dead_private_definitions():
    modules = {
        "a": "def _called(): pass\ndef _recursive(): return _recursive()\n"
        "class _Unused: pass\ndef _imported(): pass\ndef _attribute(): pass\n"
        "def public(): return _called()\n",
        # a bare name refers to its own module's definitions only
        "b": "from .a import _imported\nfrom . import a\na._attribute()\n_recursive()\n",
    }
    assert _dead_private_defs(modules) == ["a._Unused", "a._recursive"]


def test_no_dead_private_definitions():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _dead_private_defs(modules) == []
