"""No floats, ever: the package source holds no float literal and no
float(...) call, so every number it computes stays exact."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "voalab"


def float_sites(path):
    """(line, what) for each float literal and float(...) call in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...) call"


def test_source_has_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = ["%s:%d: %s" % (path.name, line, what)
            for path in files for line, what in float_sites(path)]
    assert not hits, hits
