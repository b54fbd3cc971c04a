"""No floats, ever: the package source holds no float literal and no
float(...) call, and its rational inputs refuse a float, so every
number it computes stays exact."""

import ast
import pathlib

import pytest

from voalab.exactfield import SQRT2, exp_two_pi_i
from voalab.fockspace import State, basis_monomials, sector_charges, to_q8
from voalab.sectors import graded_dim, twisted_sector
from voalab.structure import named_vector
from voalab.vertexengine import RationalPowerSeries

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


def test_rational_inputs_refuse_floats():
    E = named_vector("E")
    calls = [
        lambda: to_q8(0.25),
        lambda: State.basis((), 0.25),
        lambda: E.coefficient((), 0.5),
        lambda: basis_monomials(0.5, [0]),
        lambda: basis_monomials(1, [0.5]),
        lambda: sector_charges("V_L2", 0.5),
        lambda: graded_dim("M(1)", 2.0),
        lambda: graded_dim("V_L2", 2.0),
        lambda: twisted_sector(1, 1, bound=0.5),
        lambda: twisted_sector(1, 1, bound=0.1),
        lambda: RationalPowerSeries([(0.5, E)]),
        lambda: RationalPowerSeries([(0, E)]).coefficient(0.5),
        lambda: exp_two_pi_i(0.5),
        lambda: SQRT2 * 0.5,
    ]
    for call in calls:
        with pytest.raises(TypeError, match="float"):
            call()
