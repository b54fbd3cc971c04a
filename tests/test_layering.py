"""The layering of the package's modules: a State's representation (its
packed keys and coordinate planes) lives in `fockspace`, the mode engine
`vertexengine` and the linear algebra of `linalg` sit on it, and no
module reaches another through a function-level import except where a
load has to wait."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "voalab"

# (module, enclosing function): count of every function-level relative
# import.  The package and `cli` load the catalog on first use, and the
# derived named vectors are built with the mode engine and `structure`,
# which import `fockspace` themselves.
LAZY = Counter({
    ("__init__", "__getattr__"): 1,
    ("cli", "_cmd_verify"): 1,
    ("cli", "_cmd_list"): 1,
    ("fockspace", "_build_derived"): 3,
})


def relative_imports(path):
    """[(enclosing function or None, module)] of every relative import in
    path: `from . import x` names the module "", `from .x import y` "x"."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                out.append((fn, child.module or ""))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
            else:
                walk(child, fn)

    walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return out


def test_function_level_imports_are_the_lazy_loads():
    sites = Counter((path.stem, fn) for path in sorted(SRC.glob("*.py"))
                    for fn, _ in relative_imports(path) if fn)
    assert sites == LAZY


def test_state_layers_do_not_import_the_engine():
    # outside the derived named vectors, which need the engine
    for name in ("fockspace", "linalg"):
        mods = [mod for fn, mod in relative_imports(SRC / (name + ".py"))
                if (name, fn) not in LAZY]
        assert "vertexengine" not in mods, name
