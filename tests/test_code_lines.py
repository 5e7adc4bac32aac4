"""tools/code_lines.py on a small synthetic module and tree."""

from conftest import TOOLS_DIR, perfbench_module

# 7 code lines, 7 docstring lines and 1 comment line: the module docstring
# holds a blank line, and a code line with a trailing comment is code.
SOURCE = '''\
"""Module docstring,

with a blank line inside."""

import math  # a trailing comment


# a comment line
class Shape:
    """Class docstring."""

    def area(self):
        """Method
        docstring."""
        return math.pi


def free():
    """Function docstring."""
    text = "a string, not a docstring"
    return text
'''


def test_code_lines_counts_docstrings_at_every_level_and_comments_apart_from_code():
    code_lines = perfbench_module("code_lines", TOOLS_DIR)
    assert code_lines.count_lines(SOURCE) == (7, 7, 1)
    assert code_lines.count_lines("") == (0, 0, 0)


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    code_lines = perfbench_module("code_lines", TOOLS_DIR)
    package = tmp_path / "src" / "arcipm"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(SOURCE)
    (package / "plain.py").write_text("# only a comment\n\nx = 1\n")
    code_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "docstring", "comment"],
        ["plain.py", "1", "0", "1"],
        ["shapes.py", "7", "7", "1"],
        ["total", "8", "7", "2"],
    ]
