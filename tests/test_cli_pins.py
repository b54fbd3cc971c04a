"""Pinned outputs and exit codes of the command line, run through
`cli.main` in process.  The installed entry point keeps its own smoke
test in CI (the lazy catalog load, `voalab verify --all --format json`
and `voalab list`)."""

import pytest

import voalab
from voalab import cli, named_vector
from voalab.exactfield import SQRT2
from voalab.fockspace import KeyWidthError

# (argv, expected): an int is the exit code alone; a str is the whole
# stdout as `$(voalab ...)` captures it, trailing newlines stripped, of a
# run that exits 0; ("last", s) pins only the last line, as `| tail -1`.
PINS = [
    (["pair", "--u", "u9", "--v", "u9"], "5400"),
    # the odd-part parity factor on a charged monomial
    (["pair", "--u", "r2*h(-2)h(-1)h(-1)|1/2b>", "--v", "h(-2)h(-1)h(-1)|-1/2b>"],
     "4√2"),
    # the fold's signs: i i = -1, and sqrt3 i sqrt6 = 3 sqrt2 i
    (["pair", "--u", "i*E", "--v", "i*E"], "-2"),
    (["pair", "--u", "r3*i*J", "--v", "r6*J"], "162√2·i"),
    (["mode", "--u", "w1", "--n=-1/2", "--v", "w2"], 0),
    (["mode", "--u", "|1/2b>", "--n=-1", "--v", "|-1/2b>"],
     "h(-1)h(-1)|0> + ((1/2)√2) h(-2)|0>"),
    # engine results stay packed: a zero product, and one read only by str
    (["mode", "--u", "E", "--n", "8", "--v", "E"], "0"),
    (["mode", "--u", "E", "--n", "7", "--v", "E"], "(2) |0>"),
    (["table", "--name", "irreducibles"], 0),
    (["table", "--name", "nope"], 2),
    (["char", "--object", "V_Zb+", "--max-weight", "8"], 0),
    # the even- and odd-length partition counts at weight 40
    (["char", "--object", "M(1)+", "--max-weight", "40"], ("last", "q^40  18692")),
    (["char", "--object", "M(1)-", "--max-weight", "40"], ("last", "q^40  18646")),
    # every named space goes through one library call
    (["char", "--object", "eigenspace-1", "--max-weight", "12"], ("last", "q^12  19")),
    (["char", "--object", "V_Zb-", "--max-weight", "12"], ("last", "q^12  59")),
    (["char", "--object", "nope"], 2),
    # malformed input exits 2 with a message, not a traceback
    (["char", "--object", "L1-x"], 2),
    (["verify", "--max-weight", "-1"], 2),
    (["pair", "--u", "|1/8b>", "--v", "|-1/8b>"], 2),
    (["pair", "--u", "h(-64)|0>", "--v", "h(-64)|0>"], 2),
    # a state beyond the key width still acts as u, but takes no arithmetic
    (["mode", "--u", "h(-64)|0>", "--n", "64", "--v", "h(-1)|0>"], "(-64) |0>"),
    (["mode", "--u", "2*h(-64)|0>", "--n", "64", "--v", "h(-1)|0>"], 2),
    (["mode", "--u", "E", "--n", "1/2", "--v", "E"], 2),
    # a charge-zero operator on a charged state: the cloud-free creation path
    (["mode", "--u", "J", "--n", "2", "--v", "h(-2)|1/2b>"],
     "(8) h(-1)h(-1)h(-1)|1/2b> + (54√2) h(-2)h(-1)|1/2b> + (-16) h(-3)|1/2b>"),
    # a charged derivative-field operator: the creation path with its cloud
    (["mode", "--u", "h(-2)|1/2b>", "--n", "1", "--v", "h(-1)|-1/2b>"],
     "(-(1/3)√2) h(-1)h(-1)h(-1)|0> + (-4) h(-2)h(-1)|0> + (-(10/3)√2) h(-3)|0>"),
]


@pytest.mark.parametrize("argv, expected", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_cli_pin(argv, expected, capsys):
    try:
        code = cli.main(argv) or 0
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out.rstrip("\n")
    if isinstance(expected, int):
        assert code == expected
        return
    assert code == 0
    if isinstance(expected, tuple):
        out, expected = out.rsplit("\n", 1)[-1], expected[1]
    assert out == expected


def test_a_field_element_on_the_left_reaches_rmul():
    E = named_vector("E")
    assert SQRT2 * E == E * SQRT2


def test_key_width_error_lives_in_fockspace():
    assert voalab.KeyWidthError is KeyWidthError


def test_equal_states_are_one_set_element():
    E = named_vector("E")
    assert len({E, E * 1, -(-E)}) == 1


def test_state_plus_field_element_is_a_type_error():
    pytest.raises(TypeError, lambda: named_vector("E") + SQRT2)
