"""Exact-arithmetic lab for a rank-one even lattice vertex algebra, its
reflection-even subalgebra, and the order-3 orbifold of that subalgebra.

The package computes vertex-operator modes, invariant pairings, shifted
(twisted) sector gradings, and character decompositions over the exact
coefficient field Q(i, sqrt 2, sqrt 3), and ships a catalog of
machine-checked structural identities with a command line front end.
"""

from .exactfield import ONE, ZERO, Scalar, as_rational, rat, sc, sixth_root, sqrt2_power
from .exprparse import parse_scalar_expr, parse_state_expr
from .fockspace import KeyWidthError, State, graded_states, theta, theta_even_states
from .structure import (
    build_u16, c_functional, decompose_over, gram_rational, is_primary,
    named_vector, pair, vacuum_words, word_states,
)
from .vertexengine import (
    ModeLegalityError, RationalPowerSeries, delta_apply, mode_apply,
    mode_apply_theta_even, twisted_mode_apply, twisted_weight, virasoro_mode,
)
from .sectors import (
    char_L1, char_series, decompose_quarter_module, graded_dim,
    module_catalog, multiplet_spectrum_table, sector_top, sigma,
    top_level_eigenvalue, twisted_sector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ONE", "ZERO", "Scalar", "as_rational", "rat", "sc", "sixth_root",
    "sqrt2_power", "parse_scalar_expr", "parse_state_expr", "State",
    "graded_states", "named_vector", "theta", "theta_even_states",
    "build_u16", "c_functional", "decompose_over",
    "gram_rational", "is_primary", "pair", "vacuum_words", "word_states",
    "KeyWidthError", "ModeLegalityError", "RationalPowerSeries", "delta_apply", "mode_apply",
    "mode_apply_theta_even", "twisted_mode_apply", "twisted_weight",
    "virasoro_mode",
    "char_L1", "char_series", "decompose_quarter_module",
    "graded_dim", "module_catalog", "multiplet_spectrum_table", "sector_top",
    "sigma", "top_level_eigenvalue", "twisted_sector", "CheckResult",
    "CheckSpec", "DEFAULT_CONFIG", "PAPER_MAP", "Report", "all_checks",
    "emit_report", "get_check", "run_checks",
]

# The catalog (`paperlab`) is the largest module and only `verify`,
# `list` and library callers of the checks use it, so it loads on first
# access of one of its names (PEP 562) and then binds the name here.
_CATALOG = frozenset((
    "CheckResult", "CheckSpec", "DEFAULT_CONFIG", "PAPER_MAP", "Report",
    "all_checks", "emit_report", "get_check", "run_checks",
))


def __getattr__(name):
    if name not in _CATALOG:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import paperlab
    value = globals()[name] = getattr(paperlab, name)
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
