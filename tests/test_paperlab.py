"""The check catalog: registry shape, selection, statuses, and report
emission."""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from voalab import paperlab, sectors, structure
from voalab.exactfield import sc, sixth_root, sqrt2_power
from voalab.exprparse import parse_scalar_expr
from voalab.fockspace import State, graded_states
from voalab.linalg import express_in_span
from voalab.paperlab import (
    CheckResult, CheckSpec, DEFAULT_CONFIG, Report, all_checks, emit_report,
    get_check, run_checks,
)
from voalab.structure import named_vector
from voalab.vertexengine import (
    ModeLegalityError, RationalPowerSeries, hprime_eigenvector, mode_apply,
    twisted_mode_apply,
)

EXPECTED_FINDINGS = {
    "lemma-4.4-gram-normalization",
    "lemma-4.5-c3",
    "thm-4.7-c-print",
}

CRITERIA = tuple("criterion-%d" % k for k in range(1, 11))

# sha256 of the JSON list of [id, description, anchor, tags, cost, finding,
# covers] of every check sorted by id, and of the ids in registration
# order joined by newlines.  The report digest covers only ids, statuses
# and the two value strings; this covers the rest of each spec, and the
# order is the item order of the catalog-fast benchmark workload.
REGISTRY_SHA256 = (
    "2662393a9df11bd4ba9ff8d14623b497ecf94e2be06699995333fac4708346cf")
ORDER_SHA256 = (
    "648c56c677ff74456801ff1443f2d4c58b5b2de76c546568a9c3e8106db2081a")


def test_registry_shape():
    checks = all_checks()
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids)) == 86
    for c in checks:
        assert re.fullmatch(r"[A-Za-z0-9.-]+", c.id), c.id
        assert c.description
        assert c.cost in ("fast", "heavy")
        assert callable(c.thunk)
        for t in c.tags:
            assert t in CRITERIA, (c.id, t)
    assert {c.id for c in checks if c.finding} == EXPECTED_FINDINGS


def test_registry_fields_and_order_are_pinned():
    rows = [[c.id, c.description, c.anchor, list(c.tags), c.cost, c.finding,
             list(c.covers)] for c in sorted(all_checks(), key=lambda c: c.id)]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == REGISTRY_SHA256
    order = "\n".join(c.id for c in all_checks()).encode()
    assert hashlib.sha256(order).hexdigest() == ORDER_SHA256


def test_every_check_is_tagged_except_meta():
    for c in all_checks():
        if c.id == "meta-paper-map":
            assert not c.tags
        else:
            assert c.tags, c.id


def test_get_check():
    c = get_check("lemma-3.8-u9-norm")
    assert c.id == "lemma-3.8-u9-norm"
    with pytest.raises(KeyError):
        get_check("no-such-check")


def test_locator_coverage():
    spec = get_check("meta-paper-map")
    computed, expected = spec.thunk(dict(DEFAULT_CONFIG))
    assert computed == expected == ()


def test_selection_semantics():
    rep = run_checks(selection=["lemma-3.8-u9-norm"])
    assert [c.id for c in rep.checks] == ["lemma-3.8-u9-norm"]
    assert rep.summary == {"total": 1, "pass": 1, "finding": 0, "fail": 0}

    rep2 = run_checks(selection=[])
    assert rep2.checks == []
    assert rep2.summary == {"total": 0, "pass": 0, "finding": 0, "fail": 0}

    with pytest.raises(ValueError):
        run_checks(selection=["nope-unknown"])

    rep3 = run_checks(selection=["criterion-1"])
    assert len(rep3.checks) == 12
    assert all(c.status == "pass" for c in rep3.checks)

    rep4 = run_checks(selection=["criterion-1", "lemma-3.6-E3E"])
    assert len(rep4.checks) == 12


def test_results_sorted_by_id():
    rep = run_checks(selection=["criterion-1"])
    ids = [c.id for c in rep.checks]
    assert ids == sorted(ids)


def test_finding_status_and_payload():
    rep = run_checks(selection=["thm-4.7-c-print"])
    res = rep.checks[0]
    assert res.status == "finding"
    assert res.computed == "(1/2, 1/4, 1/8)"
    assert res.expected == "(2, 4, 8)"
    assert res.ms >= 0


def test_fail_path_and_error_capture():
    ok = CheckSpec("tmp-equal", "equal", "catalog", lambda cfg: (1, 1))
    bad = CheckSpec("tmp-differ", "differ", "catalog", lambda cfg: (1, 2))

    def boom(cfg):
        raise RuntimeError("exploded")

    err = CheckSpec("tmp-error", "raises", "catalog", boom)
    assert paperlab._run_one(ok, dict(DEFAULT_CONFIG)).status == "pass"
    res = paperlab._run_one(bad, dict(DEFAULT_CONFIG))
    assert res.status == "fail"
    res2 = paperlab._run_one(err, dict(DEFAULT_CONFIG))
    assert res2.status == "fail"
    assert "RuntimeError" in res2.computed
    assert "exploded" in res2.computed


def test_u16_sigma_check_is_the_direct_sigma():
    # eq-4.2-u16-sigma reads sigma(u16) as u16 + sigma(P) - P, sigma(P)
    # by the automorphism property from sigma(J) and sigma(E); the direct
    # sigma of u16 and of P, each by the chain at weight 16, are the
    # oracle
    u16 = named_vector("u16")
    J, E = named_vector("J"), named_vector("E")
    computed, expected = get_check("eq-4.2-u16-sigma").thunk(dict(DEFAULT_CONFIG))
    assert expected == u16
    assert computed == sectors.sigma(u16) == u16
    image = structure._u16_seed(sectors.sigma(J), sectors.sigma(E), mode_apply)
    assert image == sectors.sigma(structure._u16_seed(J, E))


def test_u16_sigma_check_fails_on_a_wrong_sigma(monkeypatch):
    # a sigma that fixes J makes sigma(P) - P = 27 (sigma(E)(-9)sigma(E)
    # - E(-9)E), and the check reports that sum; a sigma that moves
    # omega or |0> breaks the reduction to P, and the check says so
    J, E = named_vector("J"), named_vector("E")
    u16 = named_vector("u16")
    sigma = sectors.sigma
    monkeypatch.setattr(paperlab, "sigma", lambda v: J if v == J else sigma(v))
    res = run_checks(["eq-4.2-u16-sigma"]).checks[0]
    wrong = u16 + (mode_apply(sigma(E), -9, sigma(E))
                   - mode_apply(E, -9, E)) * sc(27)
    assert (res.status, res.computed, res.expected) == (
        "fail", paperlab._clip(paperlab._render(wrong), 360),
        paperlab._clip(paperlab._render(u16), 360))
    assert res.computed == (
        "(27/4) |2b> + (376/17325) h(-1)h(-1)h(-1)h(-1)h(-1)h(-1)h(-1)h(-1)"
        "h(-1)h(-1)h(-1)h(-1)|1b> + ((136/525)√2) h(-2)h(-1 ...")
    for name in ("omega", "one"):
        v = named_vector(name)
        monkeypatch.setattr(paperlab, "sigma",
                            lambda x, v=v: x * sc(2) if x == v else sigma(x))
        res = run_checks(["eq-4.2-u16-sigma"]).checks[0]
        assert (res.status, res.computed, res.expected) == (
            "fail", "error: ArithmeticError: sigma does not fix %s" % name, "")


def test_artifact_builds_once():
    # thm-5.4 builds all four shifted sectors; lemma-5.3 then reads two
    # of them, which must be cache hits
    cache = paperlab._twisted
    assert run_checks(selection=["thm-5.4-lowest-weights"]).summary["pass"] == 1
    before = cache.cache_info()
    assert run_checks(selection=["lemma-5.3-graded-pieces"]).summary["pass"] == 1
    after = cache.cache_info()
    assert after.hits == before.hits + 2 and after.misses == before.misses
    # a build that raises stores nothing
    with pytest.raises(ValueError):
        cache(3, 1)
    assert cache.cache_info().currsize == after.currsize


def test_config_defaults_and_copy():
    rep = run_checks(selection=[])
    assert rep.config == DEFAULT_CONFIG
    assert rep.config is not DEFAULT_CONFIG


def test_run_checks_rejects_bad_truncations():
    # a negative or non-integer truncation would pass checks vacuously,
    # and a key other than `characters` (a typo among them) would be
    # ignored and still printed in the report
    bad = [("characters", -3), ("characters", 5 / 2), ("characters", "24"),
           ("characters", True), ("charcters", 5), ("eigenspaces", 12),
           ("twisted", 3)]
    for key, value in bad:
        with pytest.raises(ValueError, match=key):
            run_checks(selection=["lemma-3.1-character"],
                       config={key: value})
    rep = run_checks(selection=["lemma-3.1-character"],
                     config={"characters": 0})
    assert rep.summary["total"] == 1
    assert rep.config == dict(DEFAULT_CONFIG, characters=0)


def test_render_scalars():
    render = paperlab._render
    assert render(True) == "True"
    assert render(False) == "False"
    assert render(7) == "7"
    assert render(None) == "none"
    from fractions import Fraction
    assert render(Fraction(-3, 7)) == "-3/7"
    assert render((1, Fraction(1, 2))) == "(1, 1/2)"
    assert render({"b": 2, "a": 1}) == "{a: 1, b: 2}"


def test_emit_report_json():
    rep = run_checks(selection=["lemma-3.8-u9-norm", "thm-4.7-c-print"])
    raw = emit_report(rep, fmt="json")
    assert isinstance(raw, bytes)
    doc = json.loads(raw.decode("utf-8"))
    assert set(doc) == {"version", "config", "checks", "summary"}
    assert doc["version"] == paperlab.VERSION
    assert doc["summary"] == {"total": 2, "pass": 1, "finding": 1, "fail": 0}
    by_id = {c["id"]: c for c in doc["checks"]}
    assert set(by_id) == {"lemma-3.8-u9-norm", "thm-4.7-c-print"}
    assert by_id["lemma-3.8-u9-norm"]["computed"] == "5400"
    for c in doc["checks"]:
        assert set(c) == {"id", "status", "computed", "expected", "ms"}


def test_emit_report_text():
    rep = run_checks(selection=["lemma-3.8-u9-norm"])
    raw = emit_report(rep, fmt="text")
    text = raw.decode("utf-8")
    lines = text.splitlines()
    assert any("lemma-3.8-u9-norm" in ln and "pass" in ln for ln in lines)
    assert lines[-1] == "checks: 1  pass: 1  finding: 0  fail: 0"
    with pytest.raises(ValueError):
        emit_report(rep, fmt="yaml")


def test_reports_are_deterministic_up_to_timing():
    sel = ["lemma-3.6-E3E", "lemma-3.6-J2J"]
    a = emit_report(run_checks(selection=sel), fmt="json").decode()
    b = emit_report(run_checks(selection=sel), fmt="json").decode()
    scrub = lambda s: re.sub(r'"ms": [0-9.]+', '"ms": 0', s)
    assert scrub(a) == scrub(b)


def test_report_and_result_types():
    rep = run_checks(selection=["lemma-3.6-E3E"])
    assert isinstance(rep, Report)
    assert isinstance(rep.checks[0], CheckResult)
    assert rep.version == paperlab.VERSION


def _hand_built_expectations():
    """The expected values as the catalog built them by hand before its
    one-line identities became table rows."""
    J, E, W, u9 = (named_vector(n) for n in ("J", "E", "W", "u9"))
    X1, X2 = named_vector("X1"), named_vector("X2")
    hp, omega, one = (named_vector(n) for n in ("hprime", "omega", "one"))
    y1, y2 = named_vector("y1"), named_vector("y2")

    def rps(pairs):
        return RationalPowerSeries([(Fraction(e), st) for e, st in pairs])

    return {
        "lemma-3.2-sigma-J": J * sc(Fraction(-1, 2)) + E * sc(Fraction(9, 2)),
        "lemma-3.2-sigma-E": J * sc(Fraction(-1, 6)) + E * sc(Fraction(-1, 2)),
        "eq-3.1-sigma-X1": X1 * sixth_root(2),
        "eq-3.1-sigma-X2": X2 * sixth_root(4),
        "lemma-3.8-W-u9": u9 * (sqrt2_power(3) * sc(-1)),
        "lemma-3.8-u9-norm": sc(5400),
        "eq-3.12-W8J": E * sc(-10800),
        "eq-3.12-W8E": J * sc(400),
        "eq-3.13-W8X1": X1 * parse_scalar_expr("-1200*r3*i"),
        "eq-3.13-W8X2": X2 * parse_scalar_expr("1200*r3*i"),
        "sec3-u9-8E": J * parse_scalar_expr("-100*r2"),
        "sec3-E-norm": sc(2),
        "sec3-J-norm": sc(54),
        "eq-3.14-W-norm": sc(43200),
        "eq-5.2-shift-omega":
            rps([(0, omega), (-1, hp), (-2, one * sc(Fraction(1, 36)))]),
        "eq-5.3-shift-hprime": rps([(0, hp), (-1, one * sc(Fraction(1, 18)))]),
        "eq-5.4-shift-y1": rps([(Fraction(1, 3), y1)]),
        "eq-5.5-shift-y2": rps([(Fraction(-1, 3), y2)]),
        "eq-5.6-opposite-shift-omega":
            rps([(0, omega), (-1, -hp), (-2, one * sc(Fraction(1, 36)))]),
        "eq-5.7-opposite-shift-hprime":
            rps([(0, -hp), (-1, one * sc(Fraction(1, 18)))]),
        "eq-5.8-opposite-shift-y1": rps([(Fraction(-1, 3), y1)]),
        "eq-5.9-opposite-shift-y2": rps([(Fraction(1, 3), y2)]),
    }


def test_table_rows_equal_their_hand_built_expectations():
    cfg = dict(DEFAULT_CONFIG)
    for id, value in _hand_built_expectations().items():
        computed, expected = get_check(id).thunk(cfg)
        assert type(expected) is type(value) and expected == value, id
        assert computed == expected, id


def _piece_oracle(ts, v):
    """The grade of the sector piece whose span holds v, by row reduction."""
    for g in sorted(ts["graded"]):
        if express_in_span(ts["graded"][g], v) is not None:
            return g
    return None


def test_grade_of_matches_span_membership():
    one, E = named_vector("one"), named_vector("E")
    y1, y2 = named_vector("y1"), named_vector("y2")
    w1, w2 = named_vector("w1"), named_vector("w2")
    hp = named_vector("hprime")
    ts11, ts21 = paperlab._twisted(1, 1), paperlab._twisted(2, 1)
    ts12, ts22 = paperlab._twisted(1, 2), paperlab._twisted(2, 2)
    g169 = Fraction(16, 9)
    gen21 = paperlab._twisted_image(y2, w2, hp, g169)
    gen22 = paperlab._twisted_image(y1, w1, -hp, g169)
    twelve = [(ts11, one), (ts11, y2), (ts11, y1),
              (ts21, w2), (ts21, w1), (ts21, gen21),
              (ts12, one), (ts12, y1), (ts12, y2),
              (ts22, w1), (ts22, w2), (ts22, gen22)]
    grades = [paperlab._grade_of(ts, v) for ts, v in twelve]
    assert grades == [_piece_oracle(ts, v) for ts, v in twelve]
    assert grades == [Fraction(1, 36), Fraction(25, 36), Fraction(49, 36),
                      Fraction(1, 9), Fraction(4, 9), g169] * 2
    # an eigenvector of h'(0) of weight 4 at grade 4 + 1/36, above the bound
    _, above = hprime_eigenvector(State.basis((4,)))
    assert sectors.shifted_weight(above, hp) == Fraction(145, 36) > ts11["bound"]
    # not an eigenvector; off the V_L2+a/2 grid; above the bound; an odd
    # charge, off both grids
    eighth = State.basis((), Fraction(1, 8))
    for ts, v in ((ts11, y1 + y2), (ts21, E), (ts22, E), (ts11, above),
                  (ts11, eighth), (ts21, eighth)):
        assert paperlab._grade_of(ts, v) is None
        assert _piece_oracle(ts, v) is None


def _scan_twisted_images(u, base, hvec):
    """{n: (image, its shifted weight)} over the nonzero images of base
    under the shifted modes u_n, n in (1/6)Z with |n| <= 4: the search
    that is the oracle of `paperlab._twisted_image`."""
    out = {}
    for num in range(-24, 25):
        n = Fraction(num, 6)
        try:
            st = twisted_mode_apply(u, n, base, hvec)
        except ModeLegalityError:
            continue
        if st:
            out[n] = st, sectors.shifted_weight(st, hvec)
    return out


def test_twisted_image_matches_the_index_scan():
    y1, y2 = named_vector("y1"), named_vector("y2")
    w1, w2 = named_vector("w1"), named_vector("w2")
    hp = named_vector("hprime")
    g169 = Fraction(16, 9)
    scan = _scan_twisted_images(y2, w2, hp)
    assert {n: wt for n, (_, wt) in scan.items()} == {
        Fraction(-11, 3): Fraction(34, 9), Fraction(-8, 3): Fraction(25, 9),
        Fraction(-5, 3): g169}
    # the catalog's four calls: lemma-5.3, sec5-T2 and the twelve weights
    for u, base, hvec in ((y2, w2, hp), (y1, w1, -hp)):
        hits = [st for st, wt in _scan_twisted_images(u, base, hvec).values()
                if wt == g169]
        assert len(hits) == 1
        assert paperlab._twisted_image(u, base, hvec, g169) == hits[0]
    # y2(-2/3) w2 is legal and zero: the grade 7/9 is empty (Lemma 5.3)
    with pytest.raises(ArithmeticError, match="no shifted mode"):
        paperlab._twisted_image(y2, w2, hp, Fraction(7, 9))


def test_twisted_image_refuses_a_non_eigenvector(monkeypatch):
    y1, y2 = named_vector("y1"), named_vector("y2")
    with pytest.raises(ArithmeticError, match="base is not an eigenvector"):
        paperlab._twisted_image(y2, y1 + y2, named_vector("hprime"),
                                Fraction(16, 9))
    # shifted_weight reads the shifted L(0) through sectors.twisted_weight;
    # the base stays an eigenvector, the image does not
    real = sectors.twisted_weight
    w2 = named_vector("w2")
    monkeypatch.setattr(
        sectors, "twisted_weight",
        lambda v, h: real(v, h) if v == w2 else v + State.basis((7,)))
    with pytest.raises(ArithmeticError, match="state is not an eigenvector"):
        paperlab._twisted_image(y2, w2, named_vector("hprime"),
                                Fraction(16, 9))
    # an image the grading puts elsewhere: its weight, read off the
    # patched L(0) as 1, is not the target
    monkeypatch.setattr(sectors, "twisted_weight",
                        lambda v, h: real(v, h) if v == w2 else v)
    with pytest.raises(ArithmeticError, match="not 16/9"):
        paperlab._twisted_image(y2, w2, named_vector("hprime"),
                                Fraction(16, 9))


def test_random_state_is_the_scale_and_add_route():
    # one terms dict makes the same RNG calls and the same state as the
    # sum of scaled basis states it replaced
    def scale_and_add(rng, name, w, nterms=3):
        basis = graded_states(name, w)
        if not basis:
            return State()
        k = rng.randint(1, min(nterms, len(basis)))
        acc = State()
        for idx in rng.sample(range(len(basis)), k):
            num = rng.randint(-9, 9) or 1
            den = rng.randint(1, 4)
            acc = acc + basis[idx] * sc(Fraction(num, den))
        return acc

    cases = (("V_Zb", 3, 3), ("V_L2", 4, 2), ("V_L2", 0, 2), ("V_Zb", 6, 3),
             ("V_L2", Fraction(1, 2), 2))
    for seed in range(20):
        for name, w, nterms in cases:
            a, b = random.Random(seed), random.Random(seed)
            got = paperlab._random_state(a, name, w, nterms)
            want = scale_and_add(b, name, w, nterms)
            assert got == want and str(got) == str(want)
            assert a.getstate() == b.getstate()
