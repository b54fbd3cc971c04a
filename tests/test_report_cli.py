"""The command line front end."""

import json
from fractions import Fraction

import pytest

from voalab import cli, mode_apply, named_vector, paperlab
from voalab.paperlab import CheckSpec
from voalab.sectors import char_L1, char_series, eigenspace_char


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_single_check(capsys):
    code, out, err = run_cli(["verify", "--check", "lemma-3.8-u9-norm"], capsys)
    assert code == 0
    assert "lemma-3.8-u9-norm" in out
    assert "pass" in out
    assert err == ""


def test_verify_findings_do_not_fail(capsys):
    code, out, _ = run_cli(
        ["verify", "--check", "thm-4.7-c-print", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["finding"] == 1
    assert doc["summary"]["fail"] == 0


def test_verify_unknown_token(capsys):
    code, out, err = run_cli(["verify", "--check", "bogus-name"], capsys)
    assert code == 2
    assert "bogus-name" in err


def test_verify_exit_one_on_failure(capsys):
    spec = CheckSpec("tmp-cli-fail", "always disagrees", "catalog",
                     lambda cfg: (0, 1))
    paperlab._REGISTRY.append(spec)
    paperlab._BY_ID[spec.id] = spec
    try:
        code, out, _ = run_cli(["verify", "--check", "tmp-cli-fail"], capsys)
        assert code == 1
        assert "fail" in out
    finally:
        paperlab._REGISTRY.remove(spec)
        del paperlab._BY_ID[spec.id]


def test_verify_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--check", "lemma-3.6-E3E", "--format", "json",
         "--report", str(target)], capsys)
    assert code == 0
    doc = json.loads(target.read_bytes().decode("utf-8"))
    assert doc["summary"]["pass"] == 1


def test_verify_tagged_group(capsys):
    code, out, _ = run_cli(["verify", "--check", "criterion-1"], capsys)
    assert code == 0
    assert out.count("pass") >= 12


def test_list_command(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    assert "lemma-4.5-c3" in out
    assert "heavy" in out
    assert "finding" in out
    assert out.strip().endswith("86 checks")


def test_mode_command(capsys):
    code, out, _ = run_cli(["mode", "--u", "E", "--n", "3", "--v", "E"], capsys)
    assert code == 0
    assert "h(-2)h(-2)|0>" in out


def test_mode_command_takes_fractional_index(capsys):
    code, out, err = run_cli(["mode", "--u", "w1", "--n=-1/2", "--v", "w2"],
                             capsys)
    assert code == 0 and err == ""
    w1, w2 = named_vector("w1"), named_vector("w2")
    want = mode_apply(w1, Fraction(-1, 2), w2)
    assert want and out.strip() == str(want)
    parser = cli.build_parser()

    def index(text):
        return parser.parse_args(["mode", "--u", "E", "--n", text,
                                  "--v", "E"]).n

    assert index("3") == 3 and index("-3") == -3 and index("4/2") == 2
    assert index("1/2") == Fraction(1, 2)
    for bad in ("1/0", "x"):
        with pytest.raises(SystemExit):
            index(bad)
    with pytest.raises(SystemExit):
        cli.main(["mode", "--help"])
    assert "--n=-1/2" in "".join(capsys.readouterr().out.split())


def test_mode_command_reports_engine_errors(capsys):
    # an integer mode of the charge-1/4 pair is not defined
    code, out, err = run_cli(["mode", "--u", "w1", "--n", "-1", "--v", "w2"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    # a state beyond the packed key width of the mode engine
    code, out, err = run_cli(["mode", "--u", "h(-1)|0>", "--n", "-1",
                              "--v", "h(-63)|0>"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "degree 64" in err


def test_mode_and_pair_report_malformed_expressions(capsys):
    for cmd, u, v in [("mode", "foo", "E"), ("mode", "E", "|1/3b>"),
                      ("pair", "foo", "E"), ("pair", "E", "|1/3b>")]:
        index = ["--n", "-1"] if cmd == "mode" else []
        code, out, err = run_cli([cmd, "--u", u, *index, "--v", v], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_mode_reports_an_expression_that_ends_early(capsys):
    for v, message in [("", "unexpected end of expression"),
                       ("(E", "expected ), got end of expression")]:
        code, out, err = run_cli(["mode", "--u", "E", "--n", "3", "--v", v],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "error: %s\n" % message


def test_pair_command(capsys):
    code, out, _ = run_cli(["pair", "--u", "J", "--v", "J"], capsys)
    assert code == 0
    assert out.strip() == "54"


def test_pair_reports_undefined_form(capsys):
    # the form is undefined between the charge-1/8 and charge-(-1/8) sectors
    code, out, err = run_cli(["pair", "--u", "|1/8b>", "--v", "|-1/8b>"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "form undefined" in err


def test_char_command(capsys):
    code, out, _ = run_cli(["char", "--object", "V_Zb+", "--max-weight", "8"],
                           capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    dims = [int(ln.split()[-1]) for ln in lines]
    assert dims == [1, 0, 1, 1, 4, 4, 8, 10, 17]


def test_char_reports_bad_object_indices(capsys):
    for name, what in (("L1-x", "L1 index"), ("L1--2", "L1 index"),
                       ("eigenspace-x", "eigenspace index"),
                       ("eigenspace-3", "eigenspace index")):
        code, out, err = run_cli(["char", "--object", name], capsys)
        assert code == 2, name
        assert out == ""
        assert err.startswith("error: " + what), (name, err)
    code, out, _ = run_cli(["char", "--object", "L1-2", "--max-weight", "6"],
                           capsys)
    assert code == 0
    assert [int(ln.split()[-1]) for ln in out.splitlines()] == \
        [0, 0, 0, 0, 1, 1, 2]


def test_char_prints_the_library_lists(capsys):
    # every named space, eigenspace and c=1 module prints its library list
    cases = (("M(1)+", char_series("M(1)+", 12), 40),
             ("V_Zb-", char_series("V_Zb-", 12), 59),
             ("V_L2", char_series("V_L2", 12), 239),
             ("eigenspace-1", eigenspace_char(1, 12), 19),
             ("L1-2", char_L1(2, 12), 19))
    for name, dims, last in cases:
        code, out, err = run_cli(["char", "--object", name,
                                  "--max-weight", "12"], capsys)
        assert code == 0 and err == "", name
        lines = out.splitlines()
        assert [ln.split()[0] for ln in lines] == \
            ["q^%d" % w for w in range(13)], name
        assert [int(ln.split()[-1]) for ln in lines] == dims, name
        assert dims[-1] == last, name
    code, out, err = run_cli(["char", "--object", "nope"], capsys)
    assert code == 2 and out == ""
    assert err == "error: unknown object 'nope'\n"


def test_negative_max_weight_is_refused(capsys):
    # a negative truncation leaves the character checks nothing to compare
    for argv in (["verify", "--check", "lemma-3.1-character"],
                 ["verify"], ["char", "--object", "V_Zb+"]):
        for bad in ("-3", "-1", "x"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--max-weight", bad])
            assert exc.value.code == 2, (argv, bad)
            out, err = capsys.readouterr()
            assert out == ""
            assert "not a nonnegative integer" in err
    code, out, _ = run_cli(["verify", "--check", "lemma-3.1-character",
                            "--max-weight", "0"], capsys)
    assert code == 0
    assert "pass: 1" in out


def test_table_command(capsys):
    code, out, _ = run_cli(["table", "--name", "irreducibles"], capsys)
    assert code == 0
    assert "W^(1,T1,1)" in out
    assert "coincidences:" in out
    code, out, _ = run_cli(
        ["table", "--name", "irreducibles", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 27


def test_parser_rejects_garbage():
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])
