import subprocess
import sys
from pathlib import Path

COUNTER = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"

# 9 code lines: the import, the def, the two lines of the parenthesized
# sum, the two of the string that is not a docstring, the return, the
# class and its attribute. Docstrings, comments and blank lines do not count.
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""

    total = (x +
             1)
    text = """a string,
not a docstring"""
    return total, text


class C:
    """Class docstring."""
    y = 1
'''


def _count(*paths: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(COUNTER), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )


def test_counts_code_lines_of_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    proc = _count(tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"9 {tmp_path / 'a.py'}\n1 {tmp_path / 'b.py'}\n10 total\n"
    proc = _count(tmp_path / "b.py")
    assert proc.stdout == f"1 {tmp_path / 'b.py'}\n1 total\n"


def test_needs_a_path():
    proc = _count()
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("usage:")
