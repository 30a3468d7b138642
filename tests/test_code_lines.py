"""``tools/code_lines.py`` counts the non-blank code lines outside
comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a comment after code counts


# a comment on its own line does not
def f(x):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return math.floor(x) + len(text)


class C:
    """Class docstring."""

    value = 1
'''


def test_counts_code_outside_comments_docstrings_and_blank_lines():
    # import, def, the two lines of the string, return, class, value
    assert code_lines.code_lines(SNIPPET) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "1", "8"]
    assert lines[-1].split() == ["8", "total"]
