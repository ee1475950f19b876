"""Replay CLI transcripts; report every entry whose result differs.

Usage, from anywhere in a scalelab checkout, with ``scalelab`` on PATH::

    python3 tools/transcript.py FILE...

A transcript is a series of entries, each of the form::

    $ scalelab ARGUMENTS
    ? CODE
    OUTPUT

``ARGUMENTS`` are quoted as for a POSIX shell and may hold a literal tab
inside quotes.  ``CODE`` is the exit code.  ``OUTPUT`` is every line up to
the next line that starts with ``$ `` (or the end of the file), and is the
exact text of one stream: stdout when ``CODE`` is 0, else stderr.  The
other stream must be empty.  Text before the first entry is ignored.

Each entry runs in a fresh process, exactly as written: ``scalelab`` is
found on PATH, the working directory is the repository root and
``COLUMNS=80``.  An entry may read a file under ``tests/data``; none
writes one.  Every entry whose exit code, stdout or stderr differs is
printed as a diff of expected against actual, then one summary line; the
exit code is 1 if any entry differs, else 0.  Standard library only.
"""

from __future__ import annotations

import difflib
import os
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse(path: str) -> list[tuple[str, list[str], tuple[int, str, str]]]:
    """``(command, argv, (exit code, stdout, stderr))`` for each entry of the
    transcript at ``path``; ``argv`` follows the leading ``scalelab``."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    entries = []
    for chunk in re.split(r"^\$ ", text, flags=re.MULTILINE)[1:]:
        command, status, output = chunk.split("\n", 2)
        program, *argv = shlex.split(command)
        if program != "scalelab" or not re.fullmatch(r"\? \d+", status):
            raise ValueError(f"{path}: entry {command!r} is not '$ scalelab ...' then '? CODE'")
        code = int(status[2:])
        entries.append((command, argv, (code, output, "") if code == 0 else (code, "", output)))
    return entries


def replay(entries, prefix=("scalelab",), env=None):
    """``(command, expected, actual)`` for each entry whose run differs.

    Each entry runs as ``prefix + argv`` in a fresh process, from the
    repository root, with ``env`` (default: this process's environment) and
    ``COLUMNS=80``.
    """
    env = {**(os.environ if env is None else env), "COLUMNS": "80"}
    differing = []
    for command, argv, expected in entries:
        proc = subprocess.run([*prefix, *argv], cwd=ROOT, env=env, capture_output=True,
                              encoding="utf-8", errors="replace", timeout=60, check=False)
        actual = (proc.returncode, proc.stdout, proc.stderr)
        if actual != expected:
            differing.append((command, expected, actual))
    return differing


def _lines(result: tuple[int, str, str]) -> list[str]:
    """A result as lines to diff: the exit code, then each stream's lines."""
    code, out, err = result
    lines = [f"? {code}"]
    for name, text in (("stdout", out), ("stderr", err)):
        lines += [f"{name}| {line}" for line in text.splitlines()]
        if text and not text.endswith("\n"):
            lines.append(f"{name}: no newline at end")
    return lines


def main(paths: list[str]) -> int:
    if not paths or any(path.startswith("-") for path in paths):
        print("usage: python3 tools/transcript.py FILE...", file=sys.stderr)
        return 2
    entries = [entry for path in paths for entry in parse(path)]
    differing = replay(entries)
    for command, expected, actual in differing:
        print(f"$ {command}")
        diff = difflib.unified_diff(_lines(expected), _lines(actual), "expected", "actual",
                                    lineterm="")
        print(*diff, sep="\n")
    print(f"{len(entries)} entries, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
