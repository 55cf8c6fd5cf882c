import importlib.util
from pathlib import Path

from hopfeq.cli import main
from test_cli import CATALOGUE_SAMPLES
from test_frt import BUILD_FIXTURES


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")
cli_digest = load_tool("cli_digest")

SNIPPET = '''"""A module docstring,
on two lines."""

import os  # a comment after code: a code line

# a comment-only line


class Table:
    """A class docstring."""

    def rows(self, x):
        """A function docstring,
        on two lines."""
        text = """a multi-line string
that is no docstring"""
        return (os.sep + text
                + x)
'''


def test_code_lines_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.docstring_lines(code_lines.ast.parse(SNIPPET)) == {1, 2, 10, 13, 14}


def test_cli_digest_runs_the_fixtures_of_the_tests():
    assert cli_digest.FRT_FIXTURES == [(fid, f.descriptor) for fid, f in BUILD_FIXTURES]
    assert cli_digest.CATALOGUE_SAMPLES == CATALOGUE_SAMPLES
    argvs = cli_digest.command_lines()
    assert [sum(argv[0] == cmd for argv in argvs) for cmd in ("frt", "check", "verify")] == \
        [13 * 3 * 2, len(CATALOGUE_SAMPLES), 2]


def test_cli_digest_is_stable_and_separates_exit_codes(capsys):
    argvs = [["check", "--fixture", "char2", "--field", "fp:2", "--json"],  # exit 0
             ["check", "--fixture", "nope"],  # exit 2
             ["check", "--fixture", "char2", "--field", "fp:6"],  # exit 3
             ["check", "--bogus"]]  # an argparse refusal, exit 2
    runs, overall = cli_digest.digest(argvs)
    assert cli_digest.digest(argvs) == (runs, overall)
    assert len(set(runs)) == 4 and overall not in runs
    assert main(argvs[0]) == 0
    out = capsys.readouterr()
    assert runs[0] == cli_digest.run_digest(out.out, out.err, 0)
    # the same output under another exit code is another digest
    assert len({cli_digest.run_digest(out.out, out.err, code) for code in range(6)}) == 6
