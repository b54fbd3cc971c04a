"""Outside-in layer tracing for voalab.

The benchmark does not change the program to see into it.  Instead it
replaces public functions with wrappers, from the outside, for the
length of one traced pass:

* span wrappers record (name, start, end, parent span, item) for each
  call of a layer-boundary function, kept in memory;
* count wrappers only bump counters, for field and state operations,
  which run millions of times and would drown the spans in overhead.

voalab modules bind functions with ``from .x import f``, so a function
has one binding per importing module.  `install` replaces every binding
in every loaded voalab module, then checks by name that each module
binds a traced function only to its wrapper, so no span goes silently
missing.  `uninstall` puts every original back and checks that no
wrapper is left.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Layer-boundary functions that get spans: (home module, attribute path).
SPANS = (
    ("vertexengine", "mode_apply"),
    ("vertexengine", "twisted_mode_apply"),
    ("vertexengine", "delta_apply"),
    ("vertexengine", "zero_mode_decompose"),
    ("sectors", "sigma"),
    ("structure", "pair"),
    ("structure", "gram_rational"),
    ("structure", "decompose_over"),
    ("structure", "word_states"),
    ("linalg", "Echelon.insert"),
    ("linalg", "solve_square"),
)

# Hot field and state operations that only get counted:
# (counter name, home module, attribute path, whether to measure fill).
COUNTS = (
    ("exactfield.mul", "exactfield", "Scalar.__mul__", True),
    ("exactfield.add", "exactfield", "Scalar.__add__", False),
    ("exactfield.mul_rat_sqrt2", "exactfield", "Scalar.mul_rat_sqrt2", True),
    ("exactfield.inv", "exactfield", "Scalar.inv", False),
    ("fockspace.State.add", "fockspace", "State.__add__", False),
)

SPAN_NAMES = tuple("%s.%s" % site for site in SPANS)

# Names of the counters derived at span boundaries.
DERIVED = (
    "vertexengine.mode_apply.pairs",
    "vertexengine.mode_apply.terms_out",
    "vertexengine.zero_mode_decompose.krylov_steps",
    "vertexengine.twisted_mode_apply.legal_ratio",
    "linalg.solve_square.n_sum",
)

# Every per-layer metric a traced pass reports, with its unit.
LAYER_METRICS = (
    tuple((name + suffix, unit)
          for name in SPAN_NAMES
          for suffix, unit in ((".calls", "count"), (".s", "s"),
                               (".self_s", "s")))
    + tuple((name + ".calls", "count") for name, _, _, _ in COUNTS)
    + (("exactfield.coord_fill", "ratio"),)
    + tuple((name, "ratio" if name.endswith("_ratio") else "count")
            for name in DERIVED)
    + (("trace.wall_s", "s"),)
)


class Tracer:
    """Spans and counters of one traced pass, held in memory.

    A span is the list [name, start, end, parent, item]: parent is the
    index of the enclosing span in `spans` (or -1) and item is the index
    of the workload item being run, set by the caller through `item`.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1
        self.counts = {name: [0, 0] for name, _, _, _ in COUNTS}
        self.derived = {"pairs": 0, "terms_out": 0, "krylov_steps": 0,
                        "twisted_calls": 0, "twisted_illegal": 0, "n_sum": 0}
        self._sites = []

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        derived = self.derived
        after = None
        if name == "vertexengine.mode_apply":
            def after(args, result, parent):
                derived["pairs"] += len(args[0].terms) * len(args[2].terms)
                derived["terms_out"] += len(result.terms)
                if parent >= 0 and spans[parent][0] == "vertexengine.zero_mode_decompose":
                    derived["krylov_steps"] += 1
        elif name == "linalg.solve_square":
            def after(args, result, parent):
                derived["n_sum"] += len(args[0])
        twisted = name == "vertexengine.twisted_mode_apply"
        illegal = _resolve("vertexengine", "ModeLegalityError")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, self.item]
            stack.append(len(spans))
            spans.append(rec)
            if twisted:
                derived["twisted_calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except illegal:
                if twisted:
                    derived["twisted_illegal"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result, parent)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, fill):
        cell = self.counts[name]
        if fill:
            @functools.wraps(fn)
            def wrapper(*args):
                result = fn(*args)
                cell[0] += 1
                cell[1] += sum(map(bool, result.co))
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Replace every binding of every traced function; fail if a
        traced function is missing or a binding is left unreplaced."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        plan = []
        for module, path in SPANS:
            original = _resolve(module, path)
            plan.append((path, original,
                         self._span_wrapper("%s.%s" % (module, path), original)))
        for name, module, path, fill in COUNTS:
            original = _resolve(module, path)
            plan.append((path, original, self._count_wrapper(name, original, fill)))
        try:
            for _, original, wrapper in plan:
                for owner, attr, _ in [site for site in _binding_sites()
                                       if site[2] is original]:
                    setattr(owner, attr, wrapper)
                    self._sites.append((owner, attr, original, wrapper))
            # Cross-check by name: a module-level binding of a traced name
            # that is not its wrapper (a copy, a re-export of another
            # object) would escape the identity scan above.
            by_name = {path: wrapper for path, _, wrapper in plan if "." not in path}
            left = [(o.__name__, a) for o, a, v in _binding_sites()
                    if not isinstance(o, type) and a in by_name and v is not by_name[a]]
            if left:
                raise RuntimeError("bindings left untraced: %s" % left)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every replaced binding, then check that each holds its
        original and that no wrapper is bound anywhere."""
        wrappers = {id(w) for _, _, _, w in self._sites}
        for owner, attr, original, _ in reversed(self._sites):
            setattr(owner, attr, original)
        wrong = [(o.__name__, a) for o, a, orig, _ in self._sites
                 if getattr(o, a) is not orig]
        wrong += [(o.__name__, a) for o, a, v in _binding_sites() if id(v) in wrappers]
        self._sites = []
        if wrong:
            raise RuntimeError("bindings not restored: %s" % wrong)

    @property
    def sites(self):
        """(owner name, attribute) of every binding currently replaced."""
        return [(o.__name__, a) for o, a, _, _ in self._sites]

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its
        direct children (single-threaded, so children never overlap)."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def metrics(self, wall_s):
        """Every per-layer metric: {name: value}."""
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = 0
            out[name + ".s"] = 0.0
            out[name + ".self_s"] = 0.0
        # No traced function calls itself through its traced binding, so
        # the inclusive .s sums every span without double counting.
        for rec, self_s in zip(self.spans, self.self_times()):
            name = rec[0]
            out[name + ".calls"] += 1
            out[name + ".s"] += rec[2] - rec[1]
            out[name + ".self_s"] += self_s
        fill_n = fill_nz = 0
        for name, _, _, fill in COUNTS:
            calls, nz = self.counts[name]
            out[name + ".calls"] = calls
            if fill:
                fill_n += calls
                fill_nz += nz
        out["exactfield.coord_fill"] = fill_nz / (8 * fill_n) if fill_n else 0.0
        d = self.derived
        out["vertexengine.mode_apply.pairs"] = d["pairs"]
        out["vertexengine.mode_apply.terms_out"] = d["terms_out"]
        out["vertexengine.zero_mode_decompose.krylov_steps"] = d["krylov_steps"]
        calls = d["twisted_calls"]
        out["vertexengine.twisted_mode_apply.legal_ratio"] = (
            1.0 - d["twisted_illegal"] / calls if calls else 0.0)
        out["linalg.solve_square.n_sum"] = d["n_sum"]
        out["trace.wall_s"] = wall_s
        return out

    def write(self, path, header):
        """Write the spans as JSON lines: one header object, then one
        [id, name, start, end, parent, item] array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps([i, rec[0], rec[1], rec[2], rec[3], rec[4]]) + "\n")


def _resolve(module, path):
    obj = importlib.import_module("voalab." + module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _binding_sites():
    """(owner, attribute, value) for every module-level name of every
    loaded voalab module and every attribute of the classes they define."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "voalab" or modname.startswith("voalab.")):
            continue
        for attr, value in list(vars(mod).items()):
            out.append((mod, attr, value))
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    out.append((value, cattr, cvalue))
    return out

