"""Tests of the repository's tools and source conventions."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_MODULE = '''"""A module docstring
over two lines."""
# a comment line

import os  # a trailing comment


def table(key,
          default=None):
    """A function docstring."""
    out = {
        key: os.sep,
    }
    return out.get(key, default)
'''


def test_code_lines_counts_only_lines_of_code(tmp_path):
    """Blank lines, comment lines and docstrings do not count; a
    statement or literal over several lines counts each of its lines: the
    import, the two lines of the def, the three of the dict and the
    return."""
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "mod.py").write_text(_MODULE)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"),
         str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["0", "__init__.py"], ["7", "mod.py"], ["7", "total"]]


def test_source_lines_fit_79_columns():
    long = [f"{path.relative_to(ROOT)}:{number}"
            for pattern in ("src/epicmp/*.py", "tools/*.py", "tests/*.py")
            for path in sorted(ROOT.glob(pattern))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 79]
    assert long == []
