"""The layering of the package's modules: one fixed import order, from
the coefficient field `exactfield` and the States of `fockspace` (their
packed keys and coordinate planes) up through the linear algebra, the
mode engine, the structure tools and the named-vector catalog, the
sectors, the expression parser and the check catalog to the command
line.  Each module imports only modules below it, and none reaches
another through a function-level import except where a load of the
check catalog has to wait."""

import ast
import pathlib
from collections import Counter

import voalab
from voalab import fockspace, structure

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "voalab"

ORDER = ("exactfield", "fockspace", "linalg", "vertexengine", "structure",
         "sectors", "exprparse", "paperlab", "cli")

# (module, enclosing function): count of every function-level relative
# import.  The package and `cli` load the check catalog on first use.
LAZY = Counter({
    ("__init__", "__getattr__"): 1,
    ("cli", "_cmd_verify"): 1,
    ("cli", "_cmd_list"): 1,
})


def relative_imports(path):
    """[(enclosing function or None, module)] of every relative import in
    path: `from . import x` names the module x, `from .x import y` x."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                mods = [child.module] if child.module else [a.name for a in child.names]
                out.extend((fn, mod) for mod in mods)
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


def test_modules_import_only_modules_below_them():
    assert sorted(ORDER) == sorted(p.stem for p in SRC.glob("*.py")
                                   if p.stem != "__init__")
    for i, name in enumerate(ORDER):
        for _, mod in relative_imports(SRC / (name + ".py")):
            assert mod in ORDER[:i], (name, mod)


def test_fockspace_imports_only_the_field():
    path = SRC / "fockspace.py"
    assert {mod for _, mod in relative_imports(path)} == {"exactfield"}
    absolute = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "voalab" for a in node.names)
                or isinstance(node, ast.ImportFrom) and not node.level
                and node.module.split(".")[0] == "voalab"]
    assert not absolute


def test_one_named_vector_entry_point():
    assert voalab.named_vector is structure.named_vector
    assert not hasattr(fockspace, "named_vector")
