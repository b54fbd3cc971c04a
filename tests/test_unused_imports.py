"""Every name a module of the package or of its tests imports is used
in that module.  The package's `__init__.py` is skipped: its imports are
the public re-exports."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "voalab"


def unused_imports(path):
    """(line, name) for each imported name that path never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_source_has_no_unused_imports():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    files += sorted(TESTS.glob("*.py"))
    assert files
    hits = ["%s:%d: %s" % (path.relative_to(SRC.parent.parent), line, name)
            for path in files for line, name in unused_imports(path)]
    assert not hits, hits
