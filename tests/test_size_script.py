"""``scripts/size.py`` counts total lines and code lines: neither docstring, comment nor blank."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from size import size  # noqa: E402

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment on a code line


def f(x):
    """One docstring line."""
    # a comment line
    text = """a string that is not a docstring,
    over two lines"""
    return (x,
            text)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # code: import, def, text (2 lines), return (2 lines)
    assert size(SOURCE) == (13, 6)

