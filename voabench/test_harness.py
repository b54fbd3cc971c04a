"""Self-tests of the benchmark harness.

    python3 -m pytest voabench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# The metrics the benchmark promises, by name.
E2E_NAMES = {"wall_s", "setup_s", "peak_rss_mb", "item_ms.p75"}
SPAN_LAYERS = {
    "vertexengine.mode_apply", "vertexengine.twisted_mode_apply",
    "vertexengine.delta_apply", "vertexengine.zero_mode_decompose",
    "sectors.sigma", "structure.pair", "structure.gram_rational",
    "structure.decompose_over", "structure.word_states",
    "linalg.Echelon.insert", "linalg.solve_square",
}
LAYER_COUNTERS = {
    "exactfield.mul.calls", "exactfield.add.calls",
    "exactfield.mul_rat_sqrt2.calls", "exactfield.inv.calls",
    "exactfield.coord_fill", "fockspace.State.add.calls",
    "vertexengine.mode_apply.pairs", "vertexengine.mode_apply.terms_out",
    "vertexengine.zero_mode_decompose.krylov_steps",
    "vertexengine.twisted_mode_apply.legal_ratio",
    "linalg.solve_square.n_sum",
}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fake_pass(times):
    return {"items": [["k%d" % i, t, None] for i, t in enumerate(times)],
            "missing": [], "rss_mb": 20.0, "env": {}}


def test_result_schema_lists_every_metric():
    bench = _benchmark_json()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(e2e) == E2E_NAMES
    assert e2e == dict(run.END_TO_END)
    assert layers == dict(tracing.LAYER_METRICS)
    want = {s + suffix for s in SPAN_LAYERS for suffix in (".calls", ".s", ".self_s")}
    assert want | LAYER_COUNTERS <= set(layers)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)

    values = run.end_to_end([0.2, 0.3], [_fake_pass([0.1, 0.2, 0.3, 0.4])])
    assert set(values) == set(e2e) | {"item_ms.p50"}
    assert values["wall_s"] == 1.0
    assert set(tracing.Tracer().metrics(1.0)) == set(layers)


def test_wrappers_replace_every_site_and_restore():
    import voalab
    from voalab import paperlab, sectors, structure, vertexengine
    from voalab.exactfield import Scalar
    from voalab.linalg import Echelon

    original = vertexengine.mode_apply
    mul = Scalar.__mul__
    insert = Echelon.insert
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (vertexengine, structure, sectors, paperlab, voalab):
            assert mod.mode_apply is not original, mod.__name__
        assert Scalar.__mul__ is not mul and Scalar.__rmul__ is not mul
        assert Echelon.insert is not insert
        tracer.item = 0
        voalab.sigma(voalab.named_vector("E"))
        voalab.pair(voalab.named_vector("J"), voalab.named_vector("J"))
    finally:
        tracer.uninstall()
    for mod in (vertexengine, structure, sectors, paperlab, voalab):
        assert mod.mode_apply is original, mod.__name__
    assert Scalar.__mul__ is mul and Scalar.__rmul__ is mul
    assert Echelon.insert is insert
    assert tracer.sites == []

    m = tracer.metrics(1.0)
    assert m["sectors.sigma.calls"] == 1
    assert m["structure.pair.calls"] == 1
    assert m["vertexengine.zero_mode_decompose.krylov_steps"] > 0
    assert m["vertexengine.mode_apply.calls"] >= m["vertexengine.zero_mode_decompose.krylov_steps"]
    assert m["exactfield.mul.calls"] > 0
    assert 0 < m["exactfield.coord_fill"] <= 1
    # self time of sigma excludes its children; inclusive time does not
    assert m["sectors.sigma.self_s"] < m["sectors.sigma.s"]
    assert all(rec[4] == 0 for rec in tracer.spans)


def test_install_fails_on_a_binding_it_cannot_replace():
    import types
    from voalab import structure

    original = structure.pair
    fake = types.ModuleType("voalab.benchfake")
    fake.pair = lambda u, v: None   # a binding of a traced name to another object
    sys.modules[fake.__name__] = fake
    tracer = tracing.Tracer()
    try:
        try:
            tracer.install()
        except RuntimeError as exc:
            assert "voalab.benchfake" in str(exc)
        else:
            raise AssertionError("install accepted an untraced binding")
    finally:
        del sys.modules[fake.__name__]
    assert structure.pair is original
    assert tracer.sites == []


def test_wrong_pin_is_counted_not_raised():
    wl = worker.WORKLOADS["catalog-fast"]
    items = [("sec3-E-norm", "sec3-E-norm"), ("sec3-J-norm", "sec3-J-norm"),
             ("no-such-check", "no-such-check")]
    pins = worker.load_pins("catalog-fast")
    pins["sec3-J-norm"] = ["pass", "55", "54"]
    results = worker.run_items(wl, items, pins)
    problems = {key: problem for key, _, problem in results}
    assert problems["sec3-E-norm"] is None
    assert "pinned" in problems["sec3-J-norm"]
    assert problems["no-such-check"].startswith("raised ValueError")

    attempted, mismatches = run.tally([{"items": results, "missing": ["x"]}])
    assert attempted == 4
    assert sorted(key for key, _ in mismatches) == ["no-such-check", "sec3-J-norm", "x"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "voabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "voabench/run.py", "--workload", "catalog-fast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
