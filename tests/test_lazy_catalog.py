"""The catalog (`voalab.paperlab`) loads on first use, not on
`import voalab`.  Each test runs in a fresh interpreter, since the test
process itself has long imported the catalog."""

import os
import subprocess
import sys
import textwrap

import voalab

CATALOG = ("CheckResult", "CheckSpec", "DEFAULT_CONFIG", "PAPER_MAP", "Report",
           "all_checks", "emit_report", "get_check", "run_checks")


def run_fresh(code):
    """stdout of `code` run by a new interpreter that imports the voalab
    under test; the inherited PYTHONPATH follows it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(voalab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_the_catalog_unloaded():
    assert run_fresh("""
        import sys, voalab
        print("voalab.paperlab" in sys.modules)
    """) == ["False"]


def test_pair_command_leaves_the_catalog_unloaded():
    assert run_fresh("""
        import sys
        from voalab import cli
        code = cli.main(["pair", "--u", "u9", "--v", "u9"])
        print(code, "voalab.paperlab" in sys.modules)
    """) == ["5400", "0", "False"]


def test_every_public_name_resolves_to_the_catalog_object():
    assert run_fresh("""
        import voalab
        values = {name: getattr(voalab, name) for name in voalab.__all__}
        from voalab import paperlab
        print(all(values[name] is getattr(paperlab, name) for name in %r))
    """ % (CATALOG,)) == ["True"]


def test_star_import_binds_every_public_name():
    assert run_fresh("""
        from voalab import *
        import voalab
        print(sorted(set(voalab.__all__) - set(globals())))
    """) == ["[]"]


def test_unknown_name_raises_attribute_error():
    assert run_fresh("""
        import sys, voalab
        try:
            voalab.no_such_name
        except AttributeError:
            print("AttributeError", "voalab.paperlab" in sys.modules)
    """) == ["AttributeError", "False"]


def test_dir_lists_every_public_name():
    assert run_fresh("""
        import voalab
        names = dir(voalab)
        print(set(voalab.__all__) <= set(names), "__all__" in names)
    """) == ["True", "True"]
