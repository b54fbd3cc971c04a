"""Command line front end.

Subcommands:

* ``verify``  run identity checks and emit a report (text or json);
* ``list``    list the registered checks;
* ``mode``    apply one vertex-operator mode to a state expression;
* ``pair``    evaluate the invariant bilinear form on two expressions;
* ``char``    print graded dimensions of a named space;
* ``table``   print the irreducible module table.

Exit status of ``verify`` is 0 exactly when no check failed (recorded
discrepancies count as findings, not failures).
"""

from __future__ import annotations

import argparse
import sys

from .exprparse import ExprError, parse_state_expr
from .fockspace import KeyWidthError
from .structure import pair
from .vertexengine import ModeIndex, ModeLegalityError, mode_apply
from .sectors import char_L1, char_series, eigenspace_char, module_catalog


# Only `verify` and `list` import the catalog, so `mode`, `pair`, `char`
# and `table` never compile it.
def _cmd_verify(args):
    from . import paperlab
    selection = None
    if args.check:
        selection = list(args.check)
    config = {}
    if args.max_weight is not None:
        config["characters"] = args.max_weight
    try:
        report = paperlab.run_checks(selection=selection,
                                     config=config or None)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    payload = paperlab.emit_report(report, fmt=args.format)
    sys.stdout.write(payload.decode("utf-8"))
    if args.report:
        with open(args.report, "wb") as fh:
            fh.write(payload)
    return 0 if report.summary["fail"] == 0 else 1


def _cmd_list(args):
    from . import paperlab
    specs = sorted(paperlab.all_checks(), key=lambda s: s.id)
    width = max(len(s.id) for s in specs)
    for s in specs:
        flags = s.cost + (", finding" if s.finding else "")
        print("%-*s  [%s]  %s" % (width, s.id, flags, s.description))
    print()
    print("%d checks" % len(specs))
    return 0


def _mode_index(text):
    """An exact mode index from the command line: an int or a ratio."""
    try:
        return ModeIndex(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not an exact rational: %r" % text)


def _cmd_mode(args):
    try:
        u = parse_state_expr(args.u)
        v = parse_state_expr(args.v)
        out = mode_apply(u, args.n, v)
    except (ExprError, ModeLegalityError, KeyWidthError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(str(out))
    return 0


def _cmd_pair(args):
    try:
        u = parse_state_expr(args.u)
        v = parse_state_expr(args.v)
        out = pair(u, v)
    except ValueError as exc:  # ExprError, or a pairing the form leaves undefined
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(str(out))
    return 0


def _max_weight(text):
    """A weight truncation from the command line: an integer >= 0."""
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("not a nonnegative integer: %r" % text)


def _name_index(name):
    """The integer N of an object name PREFIX-N, or None."""
    try:
        return int(name.split("-", 1)[1])
    except ValueError:
        return None


def _cmd_char(args):
    n_max = args.max_weight
    name = args.object
    if name.startswith("eigenspace-"):
        j = _name_index(name)
        if j not in (0, 1, 2):
            print("error: eigenspace index must be 0, 1, or 2", file=sys.stderr)
            return 2
        dims = eigenspace_char(j, n_max)
    elif name.startswith("L1-"):
        n = _name_index(name)
        if n is None or n < 0:
            print("error: L1 index must be a nonnegative integer",
                  file=sys.stderr)
            return 2
        dims = char_L1(n, n_max)
    else:
        try:
            dims = char_series(name, n_max)
        except ValueError:
            print("error: unknown object %r" % name, file=sys.stderr)
            return 2
    for w, d in enumerate(dims):
        print("q^%-3d %d" % (w, d))
    return 0


def _cmd_table(args):
    if args.name != "irreducibles":
        print("error: unknown table %r" % args.name, file=sys.stderr)
        return 2
    rows = module_catalog()
    if args.format == "json":
        import json
        payload = [
            {"name": r["name"], "lowest_weight": str(r["lowest_weight"]),
             "realization": r["realization"], "alias_of": r["alias_of"]}
            for r in rows
        ]
        print(json.dumps(payload, indent=2))
        return 0
    namew = max(len(r["name"]) for r in rows)
    loww = max(len(str(r["lowest_weight"])) for r in rows)
    primaries = [r for r in rows if r["alias_of"] is None]
    aliases = [r for r in rows if r["alias_of"] is not None]
    print("%-*s  %-*s  %s" % (namew, "module", loww, "lowest", "realization"))
    for r in primaries:
        print("%-*s  %-*s  %s" % (namew, r["name"], loww,
                                  str(r["lowest_weight"]), r["realization"]))
    print()
    print("coincidences:")
    for r in aliases:
        print("%-*s  %-*s  = %s (%s)" % (namew, r["name"], loww,
                                         str(r["lowest_weight"]),
                                         r["alias_of"], r["realization"]))
    print()
    print("%d irreducibles, %d coincidences" % (len(primaries), len(aliases)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="voalab",
        description="exact computations in a rank-one lattice vertex "
                    "algebra orbifold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("--all", action="store_true",
                   help="run every check (the default)")
    p.add_argument("--check", nargs="+", metavar="ID",
                   help="run only these check ids or tags")
    p.add_argument("--max-weight", type=_max_weight, default=None, metavar="N",
                   help="character truncation override")
    p.add_argument("--report", metavar="PATH",
                   help="also write the report to this file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("list", help="list registered checks")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("mode", help="apply one mode: u(n)v")
    p.add_argument("--u", required=True, help="state expression")
    p.add_argument("--n", required=True, type=_mode_index,
                   help="mode index, an integer or a fraction such as 1/2; "
                        "write a negative fraction as --n=-1/2")
    p.add_argument("--v", required=True, help="state expression")
    p.set_defaults(func=_cmd_mode)

    p = sub.add_parser("pair", help="invariant form of two states")
    p.add_argument("--u", required=True, help="state expression")
    p.add_argument("--v", required=True, help="state expression")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("char", help="graded dimensions of a named space")
    p.add_argument("--object", required=True,
                   help="M(1), M(1)+, M(1)-, V_Zb+, V_Zb-, V_L2, "
                        "eigenspace-J, or L1-N")
    p.add_argument("--max-weight", type=_max_weight, default=24, metavar="N")
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("table", help="print a catalog table")
    p.add_argument("--name", required=True, help="table name: irreducibles")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
