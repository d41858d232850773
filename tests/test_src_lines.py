import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import src_lines  # noqa: E402

SOURCE = '''"""Module docstring,
two lines."""

import os  # a trailing comment


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function
        docstring."""
        text = """a string
that is code"""
        return text
'''


def test_counts_exclude_blanks_comments_and_docstrings():
    # Code: import, class, def, both lines of the assignment, return.
    assert src_lines.count(SOURCE) == (16, 6)


def test_a_file_without_docstrings_counts_every_nonblank_line():
    assert src_lines.count("x = 1\n\ny = [\n    2,\n]\n") == (5, 4)


def test_a_path_that_is_not_a_directory_exits_2(tmp_path, capsys):
    afile = tmp_path / "one.py"
    afile.write_text("x = 1\n")
    for path in (afile, tmp_path / "missing"):
        assert src_lines.main(["src_lines.py", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and str(path) in err
