"""voalab benchmark: cold workloads, end-to-end metrics, layer tracing.

    python3 voabench/run.py --workload sigma-sweep --seed 1 --seconds 25 --trace 0
    python3 voabench/run.py --workload all [--trace 1]

Each pass of a workload runs cold, in a fresh single-threaded worker
interpreter (worker.py) with empty caches, because every `voalab verify`
invocation pays that cost.  Passes repeat until --seconds have elapsed;
a pass is never cut, so a workload whose pass outlasts --seconds runs
one.  Set-up is probed in extra workers that only import voalab and
build the inputs.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced pass
and prints the per-layer metrics (see README.md).  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; earlier
lines give the environment stamp and each metric by name and unit.  The
exit status is 1 when any output differs from its pinned value, 2 when
the benchmark itself cannot run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(ROOT, ".voabench")

WORKLOADS = ("sigma-sweep", "catalog-fast")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("item_ms.p75", "ms"),
)

SETUP_PROBES = 5
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def calibrate():
    """Seconds taken by a fixed stdlib-only loop: a slowed host shows."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def git_commit():
    """The checked-out commit, read from .git inside the checkout only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload, seed, mode, deadline, extra=()):
    """Run one worker; returns (set-up seconds, parsed result or None)."""
    # A fixed string hash gives every worker the same set iteration order.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, workload, str(seed), mode, *extra]
    t0 = time.perf_counter()
    # Unbuffered, so that reading the "ready" line leaves the rest of the
    # output in the pipe for communicate().
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            bufsize=0)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(deadline - time.perf_counter(), 0.0)):
                raise BenchError("worker set-up timed out")
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError("worker failed during set-up")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError("worker exited with status %d" % proc.returncode)
    if mode == "setup":
        return setup, None
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup, json.loads(lines[-1])


def end_to_end(setups, passes):
    """End-to-end values of a run, by name.  Wall time and peak RSS are
    medians over the passes, set-up the median over every worker spawned,
    and the item latency quartiles (statistics.quantiles, n=4) are taken
    over every item of every pass.  item_ms.p50 is printed but is not an
    END_TO_END metric: on a shared host it spread by more than any bound
    allows (README.md)."""
    item_ms = [seconds * 1000.0 for p in passes for _, seconds, _ in p["items"]]
    quartiles = statistics.quantiles(item_ms, n=4)
    return {
        "wall_s": statistics.median(sum(i[1] for i in p["items"]) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "item_ms.p50": quartiles[1],
        "item_ms.p75": quartiles[2],
    }


def tally(passes):
    """(items attempted, [(key, mismatch)]) over worker results; a pinned
    item that a pass did not produce counts as attempted and failed."""
    attempted = 0
    mismatches = []
    for p in passes:
        attempted += len(p["items"]) + len(p["missing"])
        mismatches += [(key, "pinned item not produced") for key in p["missing"]]
        mismatches += [(key, problem) for key, _, problem in p["items"]
                       if problem is not None]
    return attempted, mismatches


def log(line):
    print(line, flush=True)


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns the result object of the last line."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = {"seed": seed, "cpu_count": os.cpu_count(),
           "loadavg": list(os.getloadavg()), "commit": git_commit(),
           "calibration_s": calibrate()}
    passes = []
    setups = []
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
        run_id = "%s:%d:%d" % (workload, seed, os.getpid())
        _, res = spawn(workload, seed, "trace", deadline, (run_id, spans))
        passes.append(res)
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
        env["spans"] = os.path.relpath(spans, ROOT)
    else:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, "setup", deadline)[0])
        t_passes = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            setup, res = spawn(workload, seed, "pass", deadline)
            setups.append(setup)
            passes.append(res)
            now = time.perf_counter()
            if now - t_passes >= seconds or deadline - now < 2 * (now - t0):
                break
        values = end_to_end(setups, passes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        log("%s item_ms.p50 = %.6g ms (not gated)" % (workload, values["item_ms.p50"]))
    env.update(passes[0]["env"])
    env["pass_wall_s"] = [sum(i[1] for i in p["items"]) for p in passes]
    attempted, mismatches = tally(passes)
    failed = len(mismatches)
    for key, problem in mismatches:
        log("%s: MISMATCH %s: %s" % (workload, key, problem))
    log("%s env %s" % (workload, json.dumps(env, sort_keys=True)))
    for name, m in metrics.items():
        log("%s %s = %.6g %s" % (workload, name, m["value"], m["unit"]))
    log("%s fail_ratio = %.6g (%d of %d items)"
        % (workload, failed / attempted, failed, attempted))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn() so the running worker is killed
    # and reaped rather than orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
            print(json.dumps(result), flush=True)
            return 0 if result["correct"] else 1
        correct = True
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, 0)
            correct = correct and plain["correct"]
            print(json.dumps({workload: plain}), flush=True)
            if args.trace:
                traced = run_workload(workload, args.seed, args.seconds, 1)
                correct = correct and traced["correct"]
                overhead = (traced["metrics"]["trace.wall_s"]["value"]
                            / plain["metrics"]["wall_s"]["value"])
                log("%s trace.overhead = %.4g (traced wall_s / untraced wall_s)"
                    % (workload, overhead))
                print(json.dumps({workload + ".trace": traced}), flush=True)
        return 0 if correct else 1
    except BenchError as exc:
        print("voabench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
