import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

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
