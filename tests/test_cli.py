import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hopfeq import cli, fields, fixtures, frt, kernels, rewriting, tensorops
from hopfeq.cli import main
from hopfeq.fields import QQ, parse_field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ---------------------------------------------------------------------

def test_check_char2_f2(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "char2", "--field", "fp:2")
    assert code == 0
    assert "hopf           true" in out
    assert "commutative    true" in out


def test_check_char2_rational(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "char2", "--field", "q")
    assert code == 0
    assert "hopf           false" in out


def test_check_identity_all_true(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "identity:2", "--field", "q")
    assert code == 0
    assert "false" not in out


def test_check_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--fixture", "r_q:1/2", "--field", "q", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["hopf"] is True
    # feed the echoed matrix back through a file
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc["input"]))
    code2, out2, _ = run(capsys, "check", str(path), "--json")
    assert code2 == 0
    assert json.loads(out2)["report"] == doc["report"]


def test_check_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and err


def test_deeply_nested_document_exits_2_without_a_traceback(capsys, tmp_path):
    # 1,100 nested arrays in 2.2 kB made the decoder raise RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"field": "q", "n": 1, "matrix": ' + "[" * 1100 + "]" * 1100 + "}")
    assert run(capsys, "check", str(path)) == (2, "", "input error: not valid JSON: "
                                                     "nested too deeply\n")


def test_check_bad_shape_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "q", "n": 2, "matrix": [[0, 1], [1, 0]]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and err


def test_check_bad_field_exits_3(capsys):
    code, _, err = run(capsys, "check", "--fixture", "char2", "--field", "fp:6")
    assert code == 3 and "prime" in err


def test_check_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "check", "--fixture", "nope")
    assert code == 2


@pytest.mark.parametrize("fixture", [
    "takesaki_c1000", "identity:100000", "galois_c13",
    # dimensions outside the integer grammar of fields: once read as 12 or 3
    "identity:1_2", "identity: 3", "identity:\u0663", "takesaki_c\u0663",
])
@pytest.mark.parametrize("command", ["check", "frt", "verify"])
def test_oversized_fixture_exits_2_before_building(capsys, monkeypatch, command, fixture):
    def refuse(*_):
        raise AssertionError("an oversized fixture was built")

    monkeypatch.setattr(fixtures.bialgebras, "group_algebra", refuse)
    monkeypatch.setattr(fixtures.tensorops, "identity_op", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--fixture", fixture, "--field", "q")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert err == f"input error: fixture {fixture!r} needs a dimension in 1..12\n"


def test_fixture_dimension_bound_is_inclusive():
    assert fixtures.MAX_FIXTURE_N == 12
    for fid in ("identity:12", "takesaki_c12", "galois_c12"):
        assert fixtures.build_fixture(fid, QQ).n == 12
    # 5000 digits are more than int() converts
    for fid in ("identity:13", "takesaki_c13", "identity:0", "galois_c0",
                "identity:" + "9" * 5000):
        with pytest.raises(fixtures.FixtureError):
            fixtures.build_fixture(fid, QQ)


# every fixture id at sample parameters, each with its field descriptor
_RQ = ("r_q", "r_q_prime", "r_q_dblprime")
CATALOGUE_SAMPLES = (
    [(f"identity:{n}", "q") for n in (1, 3, 12)]
    + [(f"{name}:{q}", "q") for name in _RQ for q in ("0", "1", "2", "-1/2")]
    + [(f"{name}:{q}", fd) for fd in ("fp:3", "fp:7") for name in _RQ
       for q in ("0", "1", "2")]
    + [("char2", fd) for fd in ("fp:2", "fp:3", "q")]
    + [("classical_yb:2", "q"), ("classical_yb:1/3", "q"), ("graded_c2", "q"),
       ("crossed_s3", "q")]
    + [(f"{kind}_c{m}", "q") for kind in ("takesaki", "galois") for m in range(1, 7)]
)


def test_catalogue_pinned():
    # digest recorded while the R_q family and the cyclic group law were
    # still written out beside their definitions
    docs = [[fid, fd, fixtures.build_fixture(fid, parse_field(fd)).to_json()]
            for fid, fd in CATALOGUE_SAMPLES]
    docs += [[m, fd, fixtures.bialgebras.group_algebra(m, parse_field(fd)).to_json()]
             for fd in ("q", "fp:3") for m in range(1, 7)]
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == \
        "76fb21fb92c03a4e0fd62f684c5dbd4e8707be60a3a52a920ae72e9a77c7d5a1"


def test_every_listed_fixture_builds_and_help_lists_them(capsys):
    names = ["identity:<n>", "r_q:<q>", "r_q_prime:<q>", "r_q_dblprime:<q>", "char2",
             "classical_yb:<q>", "graded_c2", "crossed_s3", "takesaki_c<m>", "galois_c<m>"]
    assert fixtures.FIXTURE_NAMES == names
    for name in names:
        assert any(fid.startswith(name.partition("<")[0]) for fid, _ in CATALOGUE_SAMPLES)
        fid = name.replace("<n>", "3").replace("<m>", "3").replace("<q>", "2")
        assert fixtures.build_fixture(fid, QQ).n >= 1
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    listed = " ".join(capsys.readouterr().out.split()).partition(" fixtures: ")[2]
    assert listed.split(", ") == names


def test_enumerate_eq_choices_are_the_equation_table(capsys):
    with pytest.raises(SystemExit):
        main(["enumerate", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "{" + ",".join(sorted(kernels.EQUATIONS)) + "}" in out
    assert sorted(kernels.EQUATIONS) == ["cocommutative", "commutative", "hopf", "pentagon",
                                         "qybe"]


@pytest.mark.parametrize("fixture", ["char2:x", "graded_c2:1", "crossed_s3:zz",
                                     "takesaki_c3:9"])
def test_stray_fixture_parameter_exits_2_before_building(capsys, monkeypatch, fixture):
    # a parameter given to a fixture that takes none was once ignored
    def refuse(*_):
        raise AssertionError("a fixture with a stray parameter was built")

    for name in ("char2_matrix", "group_algebra"):
        monkeypatch.setattr(fixtures.bialgebras, name, refuse)
    for name in ("graded_c2_solution", "crossed_s3_solution"):
        monkeypatch.setattr(fixtures, name, refuse)
    code, out, err = run(capsys, "check", "--fixture", fixture, "--field", "q")
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith("input error: ")
    assert repr(fixture) in err and "stray parameter" in err


def _refuse_scalars(monkeypatch):
    def refuse(*_):
        raise AssertionError("an entry was parsed")

    monkeypatch.setattr(type(QQ), "parse_scalar", refuse)


@pytest.mark.parametrize("command", ["check", "frt", "verify"])
def test_matrix_document_above_the_bound_exits_2_before_parsing(capsys, monkeypatch,
                                                               tmp_path, command):
    n = fixtures.MAX_FIXTURE_N + 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": "q", "n": n, "matrix": [["0"] * n * n] * n * n}))
    _refuse_scalars(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert err == f"input error: matrix document n must be <= 12, got {n}\n"


def test_matrix_document_at_the_bound_is_parsed(capsys, monkeypatch, tmp_path):
    # the bound is inclusive: n = 12 reaches the scalar parser
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": "q", "n": 12, "matrix": [["0"] * 144] * 144}))
    _refuse_scalars(monkeypatch)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and not out
    assert err == "input error: bad matrix document: an entry was parsed\n"


@pytest.mark.parametrize("field,entry", [
    ("q", "0.5"), ("q", "1_000"), ("q", " 1"), ("q", "\u0663"), ("q", "1e1000000"),
    ("fp:5", "1_000"), ("fp:5", " 1"), ("fp:5", "\u0663"),
])
def test_scalar_outside_the_documented_grammar_exits_3(capsys, tmp_path, field, entry):
    # a/b over Q and an int over F_p, in ASCII digits: "1e1000000" made check
    # on n=2 work with a million-digit numerator
    matrix = [["0"] * 4 for _ in range(4)]
    matrix[1][2] = entry
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": field, "n": 2, "matrix": matrix}))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3 and not out
    assert err.count("\n") == 1 and err.startswith("field error: ") and repr(entry) in err


@pytest.mark.parametrize("command", ["check", "frt", "verify"])
@pytest.mark.parametrize("field,template,code,message", [
    ("q", '"matrix": [[{}]]', 3, "field error: not a rational: "),
    ("fp:5", '"matrix": [[{}]]', 3, "field error: not an integer residue: "),
    ("q", '"matrix": [["{}"]]', 3, "field error: not a rational: "),
    ("q", '"n": {}, "matrix": [[1]]', 2, "input error: bad matrix document: bad dimension "),
])
def test_json_int_past_the_digit_limit_exits_with_one_short_line(
        capsys, tmp_path, command, field, template, code, message):
    # 5000 digits, past int()'s limit of 4300: an entry is refused as a scalar,
    # whether written as an int or as a string, and n as a dimension
    body = template.format("7" * 5000)
    if '"n"' not in body:
        body = '"n": 1, ' + body
    path = tmp_path / "m.json"
    path.write_text(f'{{"field": "{field}", {body}}}')
    got, out, err = run(capsys, command, str(path))
    assert (got, out) == (code, "")
    assert err == f"{message}{'7' * 20!r}... (5000 characters)\n"


@pytest.mark.parametrize("command", ["check", "verify"])
def test_bool_dimension_exits_2(capsys, tmp_path, command):
    # JSON true is a Python bool, and bool is a subclass of int
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": "q", "n": True, "matrix": [["1"]]}))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and "dimension" in err and not out


# -- numbers read from outside ---------------------------------------------------------

def run_or_exit(capsys, *argv):
    """run(), with argparse's own refusals read as their exit code."""
    try:
        code = main(list(argv))
    except SystemExit as done:
        code = done.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,code", [
    # a modulus outside ASCII digits or of thousands of digits: int() read
    # "\u0663" and "\u0662" as 3 and 2, and refused the others with exit 2
    (("check", "--fixture", "char2", "--field", "fp:\u00b2"), 3),
    (("check", "--fixture", "char2", "--field", "fp:" + "7" * 5000), 3),
    (("check", "--fixture", "char2", "--field", "fp:\u0663"), 3),
    (("enumerate", "--n", "1", "--field", "fp:\u0662"), 3),
    # integer options outside [+-]?[0-9]+: argparse's type=int took them
    (("verify", "--random", "1", "--n", "\u0662", "--field", "q"), 2),
    (("verify", "--random", "1", "--n", "1_2", "--field", "q"), 2),
    (("frt", "--fixture", "r_q:0", "--max-deg", " 3"), 2),
    (("verify", "--random", "1", "--seed", "\u0663", "--field", "q"), 2),
    (("verify", "--random", "\u0661", "--field", "q"), 2),
    (("enumerate", "--n", "1", "--field", "fp:2", "--cap", "6_5536"), 2),
    (("enumerate", "--n", "1", "--field", "fp:2", "--cap", "9" * 5000), 2),
])
def test_number_outside_its_grammar_exits_at_once(capsys, monkeypatch, argv, code):
    def refuse(*_):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(tensorops, "random_tensorop", refuse)
    monkeypatch.setattr(fixtures.bialgebras, "char2_matrix", refuse)
    monkeypatch.setattr(fixtures.bialgebras, "r_q", refuse)
    start = time.perf_counter()
    got, out, err = run_or_exit(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert got == code and not out and "Traceback" not in err
    if code == 3:
        assert err.count("\n") == 1 and err.startswith("field error: ")


@pytest.mark.parametrize("written,plain", [
    ("verify --random 2 --n +2 --field q --seed -07", "verify --random 2 --n 2 --field q --seed -7"),
    ("verify --random 1 --field fp:5 --seed -1", "verify --random +1 --field fp:5 --seed -01"),
    ("enumerate --n 1 --field fp:2 --cap 65536", "enumerate --n 01 --field fp:2 --cap 065536"),
    ("check --fixture char2 --field fp:0003", "check --fixture char2 --field fp:3"),
    ("check --fixture identity:+3 --json", "check --fixture identity:3 --json"),
])
def test_ascii_integers_are_still_read(capsys, written, plain):
    # signs and leading zeros are in the grammar, and read as the plain integer
    code, out, err = run(capsys, *written.split())
    assert code == 0 and out and not err
    assert run(capsys, *plain.split()) == (code, out, err)


def test_every_integer_option_reads_the_integer_grammar():
    # argparse's type=int reads "1_2", " 3" and non-ASCII digits
    root = cli.build_parser()
    subs = next(a for a in root._actions if isinstance(a, argparse._SubParsersAction))
    found = set()
    for name, parser in [("hopfeq", root), *subs.choices.items()]:
        for action in parser._actions:
            default = action.default
            if action.type is not None or (isinstance(default, int)
                                           and not isinstance(default, bool)):
                assert action.type is fields.parse_integer, (name, action.dest)
                found.add((name, action.dest))
    assert found == {("frt", "max_deg"), ("verify", "random"), ("verify", "n"),
                     ("verify", "seed"), ("enumerate", "n"), ("enumerate", "cap")}


def count_parsed_entries():
    """Patch Field.parse_scalar, the one scalar reader, to record each entry."""
    calls = []
    parse_scalar = fields.Field.parse_scalar

    def counting(self, x):
        calls.append(x)
        return parse_scalar(self, x)

    return calls, mock.patch.object(fields.Field, "parse_scalar", counting)


def run_document(command, doc):
    """Run one command on doc written to a file; (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("doc,code", [
    ({"field": 7, "n": 2, "matrix": [["0"] * 4] * 4}, 3),
    # a string or an object has a length too: it was read as rows or entries
    ({"field": "q", "n": 2, "matrix": "abc"}, 2),
    ({"field": "q", "n": 2, "matrix": "abcd"}, 2),
    ({"field": "q", "n": 2, "matrix": [dict.fromkeys("abcd", "1")] * 4}, 2),
    ({"field": "q", "n": 2, "matrix": ["1234"] * 4}, 2),
    ({"field": "q", "n": 2, "matrix": 4}, 2),
    ({"field": "q", "n": 2, "matrix": None}, 2),
    # no entry of a misshapen matrix is parsed, whatever its size
    ({"field": "q", "n": 2, "matrix": [["1/3"] * 60] * 60}, 2),
])
def test_document_refused_before_any_entry_is_parsed(doc, code):
    calls, counter = count_parsed_entries()
    start = time.perf_counter()
    with counter:
        got, out, err = run_document("check", doc)
    assert time.perf_counter() - start < 1
    assert (got, out, calls) == (code, "", [])
    assert err == ("field error: malformed field descriptor 7\n" if code == 3 else
                   "input error: bad matrix document: entries must be 4x4\n")


_NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
_BAD_N = st.one_of(st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                   st.text(max_size=3), st.none(), st.integers(-10**6, 0),
                   st.integers(3, 10**9), st.lists(st.integers(1, 2), max_size=2))
_BAD_FIELD = st.one_of(st.integers(), st.none(), st.booleans(),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.lists(st.sampled_from(["q", "fp:2"]), max_size=2))
_BAD_ENTRY = st.sampled_from(["\u0663", "1_000", " 1", 0.5, None, True, False])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_malformed_matrix_document_exits_with_its_documented_code(data):
    # README: a malformed document exits 2 and a field parse failure 3, each
    # with one line on stderr; a misshapen document is refused before any
    # entry is parsed
    n = data.draw(st.integers(1, 2), label="n")
    d2 = n * n
    doc = {"field": data.draw(st.sampled_from(["q", "fp:5"])), "n": n,
           "matrix": [["1"] * d2 for _ in range(d2)]}
    fault = data.draw(st.sampled_from(
        ["matrix", "row", "row count", "row length", "n", "field", "entry"]), label="fault")
    row = data.draw(st.integers(0, d2 - 1), label="row")
    if fault == "matrix":
        doc["matrix"] = data.draw(_NOT_A_LIST)
    elif fault == "row":
        doc["matrix"][row] = data.draw(_NOT_A_LIST)
    elif fault == "row count":
        count = data.draw(st.integers(0, d2 + 2).filter(lambda k: k != d2))
        doc["matrix"] = [["1"] * d2 for _ in range(count)]
    elif fault == "row length":
        doc["matrix"][row] = ["1"] * data.draw(st.integers(0, d2 + 2).filter(lambda k: k != d2))
    elif fault == "n":
        doc["n"] = data.draw(_BAD_N)
    elif fault == "field":
        doc["field"] = data.draw(_BAD_FIELD)
    else:
        doc["matrix"][row][data.draw(st.integers(0, d2 - 1))] = data.draw(_BAD_ENTRY)
    calls, counter = count_parsed_entries()
    with counter:
        code, out, err = run_document(data.draw(st.sampled_from(["check", "frt", "verify"])),
                                      doc)
    want = 3 if fault in ("field", "entry") else 2
    assert code == want and not out
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert err.startswith("field error: " if want == 3 else "input error: ")
    assert bool(calls) == (fault == "entry")


def serve_session_build(request, monkeypatch):
    """Make frt.build hand out the session's build of crossed_s3 under force,
    after asserting that it was asked for exactly that build."""
    built = request.getfixturevalue("crossed_s3_forced")
    R = fixtures.build_fixture("crossed_s3", QQ)

    def stand_in(S, *args):
        assert S == R and args == (False, True, 8)
        return built

    monkeypatch.setattr(frt, "build", stand_in)


# digests of the exact stdout bytes, recorded before integer-accumulated products
PINNED_OUTPUTS = [
    (("verify", "--random", "40", "--n", "3", "--field", "q", "--seed", "5", "--json"),
     "b8990ea6100f4f60553e067816df4a5ee9417dbc318e12a059988ba2a3d57ccd"),
    (("check", "--fixture", "takesaki_c3", "--json"),
     "f8243938dc6faded7399687016b4910347bf5950eb864811d924eb9cb2da16cb"),
    # re-recorded when the presentation gained its "chi_origin" key, the one change
    (("frt", "--fixture", "crossed_s3", "--force", "--json"),
     "2bfe986c2a66bef3251b38b1235220ba724492cc7c4ae19c747eff70a6460729"),
    (("frt", "--fixture", "takesaki_c3", "--tables"),
     "ae9379a85f468bacf99dd99389057dc8a803ab4dd372feb46eea9b6bbba43405"),
    (("enumerate", "--n", "2", "--field", "fp:2", "--eq", "hopf", "--dump", "--json"),
     "4d311637b274af3ee12494633f9ca2e63fffe14fffdcec8a6e0cd0e998285319"),
    (("enumerate", "--n", "2", "--field", "fp:2", "--eq", "qybe", "--json"),
     "3db55fca7bacd0b26cfa77803daeaee0a2f8892716c1697cbaa999c7e799bf15"),
    # the warning line of a forced non-solution, the commutative tables, a
    # lower bound and a capped completion, each recorded before cmd_frt
    # rendered frt.build
    (("frt", "--fixture", "crossed_s3", "--force"),
     "bf3a45a5bf7e99300a5a114e786b6b775127fd3b1f4b5d23f37e9d1a2e5470e8"),
    (("frt", "--fixture", "char2", "--field", "fp:2", "--commutative", "--tables", "--json"),
     "4afbd8d0603076fb38e659933cb0b0464ac7d3bbaeffbd218e3c1467de6db663"),
    (("frt", "--fixture", "r_q:0"),
     "437d052740fe526e9d5704032924ec94e58f2a25f8bd8fd73da606b53ef0e909"),
    (("frt", "--fixture", "takesaki_c3", "--max-deg", "2", "--json"),
     "265cc78e3a0e094dd5192a2932186536ded2c09214cbeffcdbf1c5d72424dd65"),
]


@pytest.mark.parametrize("argv,want", PINNED_OUTPUTS,
                         ids=["verify", "check", "frt-crossed", "frt-tables", "enumerate",
                              "enumerate-qybe", "frt-crossed-text", "frt-commutative-tables",
                              "frt-lower-bound", "frt-capped"])
def test_outputs_pinned(capsys, argv, want, request, monkeypatch):
    if argv[:3] == ("frt", "--fixture", "crossed_s3"):  # rendered from the session's build
        serve_session_build(request, monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


# -- python -m hopfeq --------------------------------------------------------------

def run_module(*argv):
    """python -m hopfeq ARGV in a fresh interpreter, importing from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hopfeq", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)


@pytest.mark.parametrize("argv", [
    ("frt", "--fixture", "char2", "--field", "fp:2", "--json"),
    ("check", "--fixture", "nope"),
], ids=["frt", "bad-fixture"])
def test_python_dash_m_matches_main(capsys, argv):
    proc = run_module(*argv)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# -- frt ------------------------------------------------------------------------

def test_frt_char2_tables(capsys):
    code, out, _ = run(capsys, "frt", "--fixture", "char2", "--field", "fp:2", "--tables")
    assert code == 0
    assert "dimension: finite, 5" in out
    assert "basis: {1, c[1,1], c[1,2], c[2,1], c[2,2]}" in out
    assert "multiplication:" in out
    assert "Delta(" in out


def test_frt_rq0_lettering_and_lower_bound(capsys):
    code, out, _ = run(capsys, "frt", "--fixture", "r_q:0", "--field", "q")
    assert code == 0
    # c21 -> 0 triggers the paper lettering x=c11, y=c22, z=c12
    assert "y*x - x" in out
    assert "y*z" in out
    assert "dimension: lower bound" in out


def test_frt_non_solution_exits_4(capsys):
    code, _, err = run(capsys, "frt", "--fixture", "classical_yb:2", "--field", "q")
    assert code == 4 and "Hopf" in err


@pytest.mark.parametrize("deg", ["0", "-1"])
def test_frt_max_deg_below_one_exits_2(capsys, deg):
    code, out, err = run(capsys, "frt", "--fixture", "char2", "--field", "fp:2",
                         "--max-deg", deg)
    assert code == 2 and "--max-deg" in err and not out


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


@pytest.mark.parametrize("target,exc", [
    ("complete", rewriting.CompletionError("did not settle")),
    ("quotient_bialgebra", rewriting.NotFiniteDimensionalError("dimension undecided")),
], ids=["CompletionError", "NotFiniteDimensionalError"])
def test_frt_rewriting_failures_exit_4(capsys, monkeypatch, target, exc):
    monkeypatch.setattr(rewriting, target, _raiser(exc))
    code, _, err = run(capsys, "frt", "--fixture", "char2", "--field", "fp:2")
    assert code == 4 and err.startswith("precondition:") and str(exc) in err


@pytest.mark.parametrize("argv", [
    ("frt", "--fixture", "char2", "--field", "fp:2", "--tables"),
    ("frt", "--fixture", "classical_yb:2", "--commutative", "--force", "--max-deg", "3", "--json"),
], ids=["tables", "forced-json"])
def test_frt_renders_one_build(capsys, monkeypatch, argv):
    # cmd_frt takes B(R) from one frt.build call and runs no stage itself
    want = run(capsys, *argv)
    built, calls = [], []
    build = frt.build

    def recording(*args):
        calls.append(args[1:])
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(frt, "build", recording)
    assert run(capsys, *argv) == want and len(calls) == 1
    stages = [(rewriting, "complete"), (rewriting, "dimension"),
              (rewriting, "quotient_bialgebra"), (tensorops, "check_hopf"),
              (frt, "frt_presentation"), (frt, "frt_commutative")]
    for owner, name in stages:
        monkeypatch.setattr(owner, name, None)
    monkeypatch.setattr(frt, "build", lambda *args: built[0])
    assert run(capsys, *argv) == want
    commutative, force = "--commutative" in argv, "--force" in argv
    assert calls == [(commutative, force, 3 if commutative else 8)]


def test_frt_force_overrides(capsys):
    code, out, _ = run(capsys, "frt", "--fixture", "classical_yb:2", "--field", "q",
                       "--force")
    assert code == 0
    assert "relations" in out


def test_frt_commutative_char2(capsys):
    code, out, _ = run(capsys, "frt", "--fixture", "char2", "--field", "fp:2",
                       "--commutative")
    assert code == 0
    assert "dimension: finite, 3" in out


def test_frt_json(capsys):
    code, out, _ = run(capsys, "frt", "--fixture", "char2", "--field", "fp:2",
                       "--json", "--tables")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == {"kind": "finite", "count": 5,
                                "hilbert_prefix": [1, 4, 0], "word_length_cap": None}
    assert doc["rewrite_system"]["status"] == "complete"
    assert doc["tables"]["dim"] == 5


def test_frt_zero_matrix_counts_the_free_algebra(capsys, tmp_path):
    # every chi relation of R = 0 vanishes, so B(R) is free on the 4 generators
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"field": "q", "n": 2, "matrix": [["0"] * 4] * 4}))
    code, out, _ = run(capsys, "frt", str(path), "--json", "--max-deg", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["presentation"]["relations"] == []
    assert doc["dimension"] == {"kind": "lower_bound", "count": 87381,
                                "hilbert_prefix": [4 ** d for d in range(9)],
                                "word_length_cap": 8}


# -- verify ------------------------------------------------------------------------

def test_verify_fixture(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "r_q_prime:1", "--field", "q")
    assert code == 0
    assert "false" not in out


def test_verify_random(capsys):
    code, out, _ = run(capsys, "verify", "--random", "3", "--n", "2",
                       "--field", "fp:5", "--seed", "9")
    assert code == 0
    assert "false" not in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_random_below_one_exits_2(capsys, count):
    code, out, err = run(capsys, "verify", "--random", count, "--n", "2",
                         "--field", "fp:2")
    assert code == 2 and "--random" in err and not out


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_n_below_one_exits_2(capsys, n):
    code, out, err = run(capsys, "verify", "--random", "2", "--n", n,
                         "--field", "fp:2")
    assert code == 2 and "--n" in err and not out


@pytest.mark.parametrize("n", ["13", "1000000"])
def test_verify_n_above_the_fixture_bound_exits_2_before_building(capsys, monkeypatch, n):
    def refuse(*_):
        raise AssertionError("an oversized operator was built")

    monkeypatch.setattr(tensorops, "random_tensorop", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--random", "1", "--n", n, "--field", "q")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert err == f"input error: --n must be <= {fixtures.MAX_FIXTURE_N}, got {n}\n"


def test_verify_n_at_the_fixture_bound_is_accepted(capsys, monkeypatch):
    # the bound is inclusive: n = 12 reaches random_tensorop
    class Reached(Exception):
        pass

    def stop(n, *_):
        raise Reached(n)

    monkeypatch.setattr(tensorops, "random_tensorop", stop)
    with pytest.raises(Reached, match="12"):
        run(capsys, "verify", "--random", "1", "--n", "12", "--field", "q")


def test_verify_corrupted_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"field": "q", "n": 2}')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


# -- enumerate ------------------------------------------------------------------------

def test_enumerate_n1_f2(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--field", "fp:2",
                       "--eq", "hopf")
    assert code == 0
    assert "n=1: 2" in out


def test_enumerate_cap_exit_5(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "2", "--field", "fp:7",
                       "--eq", "hopf")
    assert code == 5 and "cap" in err.lower()


def test_enumerate_cap_exit_5_without_building_the_candidate_count(capsys):
    # 2^14641 has more digits than int-to-str conversion allows by default
    code, out, err = run(capsys, "enumerate", "--n", "11", "--field", "fp:2")
    assert code == 5 and "cap" in err and "2^14641" in err and not out


def test_enumerate_n_below_one_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "0", "--field", "fp:2")
    assert code == 2 and "n must be >= 1" in err and not out


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_enumerate_cap_below_one_exits_2(capsys, cap):
    code, out, err = run(capsys, "enumerate", "--n", "2", "--field", "fp:2", "--cap", cap)
    assert code == 2 and "--cap" in err and not out


def test_enumerate_bad_field_exit_3(capsys):
    code, _, _ = run(capsys, "enumerate", "--n", "1", "--field", "fp:9",
                     "--eq", "hopf")
    assert code == 3


def test_enumerate_deterministic_output(capsys):
    args = ("enumerate", "--n", "1", "--field", "fp:3", "--eq", "hopf", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["count"] == sum(row["count"] for row in doc["classification"])


def test_enumerate_dump_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--field", "fp:2",
                       "--eq", "hopf", "--json", "--dump")
    assert code == 0
    doc = json.loads(out)
    from hopfeq.tensorops import TensorOp, check_hopf

    for item in doc["solutions"]:
        assert check_hopf(TensorOp.from_json(item))


def test_frt_force_reports_annihilation(capsys):
    code, out, _ = run(capsys, "frt", "--fixture", "classical_yb:2", "--field", "q",
                       "--force")
    assert code == 0
    assert "annihilate V: false" in out
    code, out, _ = run(capsys, "frt", "--fixture", "classical_yb:2", "--field", "q",
                       "--force", "--json")
    assert json.loads(out)["annihilates_module"] is False
