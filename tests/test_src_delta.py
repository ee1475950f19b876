import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "src_delta.py")
sys.path.insert(0, os.path.dirname(TOOL))

from src_delta import classify  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
x = 1  # code with a comment


def f():
    """One line."""
    text = """a string
that is code"""
    return text
'''


def test_each_line_is_one_kind():
    assert classify(SOURCE) == {"code": 5, "docstring": 3, "comment": 1, "blank": 3}


def _in_a_git_checkout():
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
    except OSError:
        return False
    return probe.returncode == 0


def test_a_revision_against_itself_is_all_zeros():
    if not _in_a_git_checkout():
        pytest.skip("needs a git checkout with a commit")
    out = subprocess.run([sys.executable, TOOL, "HEAD", "HEAD"], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    rows = out[1:-1]
    assert rows and rows[-1].startswith("total")
    for row in rows:
        deltas = re.findall(r"[+-]\d+", row)
        assert deltas == ["+0"] * 5, row
    assert re.fullmatch(r"src/: (\d+) -> \1 lines \(\+0\): "
                        r"code \+0, docstring \+0, comment \+0, blank \+0", out[-1])
