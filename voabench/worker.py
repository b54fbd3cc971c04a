"""One cold pass of one benchmark workload, in a fresh interpreter.

    python3 voabench/worker.py <workload> <seed> <setup|pass|trace> [<run id> <spans file>]

The worker imports voalab from the checkout's ``src`` directory, builds
the workload's inputs from the seed, and prints ``ready`` on stdout; the
parent times set-up from spawning the worker to that line.  In ``setup``
mode it then exits.  Otherwise it runs every item once, checks every
output against the pinned literals in ``pins.json``, and prints one JSON
line with per-item times and mismatches, peak RSS and, in ``trace`` mode,
the per-layer metrics of the traced pass (spans go to the spans file).

Every item is driven through public voalab calls with default arguments.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")


def _import_voalab():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "voalab")):
        raise SystemExit("voabench: no voalab sources under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    import voalab
    return voalab


def sigma_digest(state):
    """Pinned form of a state: sha256 of its rendering."""
    return hashlib.sha256(str(state).encode("utf-8")).hexdigest()


class SigmaSweep:
    """sigma(sigma(sigma(b))) == b on the 46 reflection-even basis states
    of V_Zb at weights 0..8, one state per item; sigma(b) itself is pinned
    by digest, so a sigma that degenerates to the identity is caught."""

    name = "sigma-sweep"

    def inputs(self, seed):
        voalab = _import_voalab()
        items = [(str(b), b) for w in range(9)
                 for b in voalab.theta_even_states("V_Zb", w)]
        random.Random(seed).shuffle(items)
        return items

    def run(self, b):
        from voalab import sigma
        s1 = sigma(b)
        return s1, sigma(sigma(s1))

    def check(self, key, payload, output, pins):
        s1, s3 = output
        if s3 != payload:
            return "sigma^3 is not the identity"
        if sigma_digest(s1) != pins[key]:
            return "sigma(b) differs from its pinned digest"
        return None


class CatalogFast:
    """Every check the catalog marks fast, one run_checks(selection=[id])
    call per item; the (status, computed, expected) strings are pinned.

    Items run in catalog order whatever the seed.  Many of them cost a few
    milliseconds, as much as building a shared named vector, so a shuffle
    decides which item pays each build; that moved item_ms.p50 by a third
    from seed to seed while the total stayed put."""

    name = "catalog-fast"

    def inputs(self, seed):
        voalab = _import_voalab()
        return [(s.id, s.id) for s in voalab.all_checks() if s.cost == "fast"]

    def run(self, check_id):
        from voalab import run_checks
        res = run_checks(selection=[check_id]).checks
        if len(res) != 1 or res[0].id != check_id:
            raise RuntimeError("run_checks returned %r for %s"
                               % ([r.id for r in res], check_id))
        return [res[0].status, res[0].computed, res[0].expected]

    def check(self, key, payload, output, pins):
        if output != pins[key]:
            return "got %s, pinned %s" % (output, pins[key])
        return None


WORKLOADS = {wl.name: wl for wl in (SigmaSweep(), CatalogFast())}


def run_items(workload, items, pins, tracer=None):
    """Run and check every item; a mismatch or an exception is recorded
    against its item and never stops the pass.

    Returns [key, seconds, mismatch or None] per item; the time covers
    only the program's calls, not the check."""
    out = []
    for index, (key, payload) in enumerate(items):
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            output = workload.run(payload)
        except Exception as exc:
            out.append([key, time.perf_counter() - t0,
                        "raised %s: %s" % (type(exc).__name__, exc)])
            continue
        seconds = time.perf_counter() - t0
        if key not in pins:
            problem = "no pinned value"
        else:
            try:
                problem = workload.check(key, payload, output, pins)
            except Exception as exc:
                problem = "check raised %s: %s" % (type(exc).__name__, exc)
        out.append([key, seconds, problem])
    return out


def load_pins(workload_name, path=PINS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[workload_name]


def env_stamp():
    """Environment of the worker: Python version and the rational type
    behind voalab's field."""
    from voalab import exactfield
    rat = exactfield.RAT
    return {"python": platform.python_version(),
            "rational_backend": "%s.%s" % (rat.__module__, rat.__qualname__)}


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]
    items = workload.inputs(seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    pins = load_pins(name)
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        results = run_items(workload, items, pins, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "items": results,
        "missing": sorted(set(pins) - {key for key, _ in items}),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env_stamp(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(sum(r[1] for r in results))
        if len(argv) > 4:
            header = {"format": "voabench-spans/1", "run": argv[3],
                      "workload": name, "seed": seed,
                      "fields": ["id", "name", "start", "end", "parent", "item"],
                      "items": [key for key, _ in items],
                      "counters": result["layers"]}
            tracer.write(argv[4], header)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
