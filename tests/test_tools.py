import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""
import math  # a trailing comment


# a comment on its own line
class Box:
    """A class docstring."""

    def area(self, x):
        """A function docstring."""
        text = """a string that
spans two lines"""
        return math.sqrt(x) + len(text)
'''


def test_line_counter_leaves_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    counter = load("count_lines")
    # import, class, def, the two lines of the string, return
    assert counter.code_lines(SNIPPET) == 6
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert counter.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["6", "1", "7"]
    assert lines[-1].split()[1] == "total"
