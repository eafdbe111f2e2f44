"""tools/code_lines.py: a line counts when a token other than a comment, a
newline or an indent starts on it, outside a module, class or function
docstring."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring
over two lines."""

import os  # counted: 1

# a comment line


class Thing:  # 2
    """Class docstring."""

    def method(self, value):  # 3
        """Method docstring.

        More text.
        """
        total = sum(  # 4
            value,  # 5
            start=0,  # 6
        )  # 7
        # 8: the string's first line; its continuation line does not count
        text = """not a docstring
        continued"""
        return total, text  # 9


async def run():  # 10
    "one-line docstring"
    return 1  # 11
'''


@pytest.fixture
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(code_lines):
    assert code_lines.code_lines(SOURCE) == 11


def test_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "a.py                  1", "b.py                 11", "total                12", ""]
