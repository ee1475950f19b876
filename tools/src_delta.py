"""Line counts of ``src/`` at two git revisions, by module and kind.

Usage, from anywhere in a scalelab checkout::

    python3 tools/src_delta.py BASE [HEAD]

HEAD defaults to ``HEAD``.  Each ``.py`` file under ``src/`` is read at
both revisions with ``git show`` (nothing is checked out or written), and
each of its lines is counted as exactly one of:

- ``docstring``: part of a string that is a statement of its own;
- ``comment``: holding a comment and no code;
- ``blank``: empty or whitespace, outside any string;
- ``code``: every other line, including code with a trailing comment.

One row per module and a total row give the counts at BASE, at HEAD and
the difference; the last line is a one-line summary.  Standard library
only.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def classify(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    lines = source.splitlines()
    kinds = ["blank"] * len(lines)
    rank = {kind: i for i, kind in enumerate(reversed(KINDS))}  # code wins
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.COMMENT:
            kind = "comment"
        elif (token.type == tokenize.STRING
              and (i == 0 or tokens[i - 1].type in _LAYOUT)
              and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT)):
            kind = "docstring"
        else:
            kind = "code"
        for row in range(token.start[0] - 1, token.end[0]):
            if rank[kind] > rank[kinds[row]]:
                kinds[row] = kind
    counts = dict.fromkeys(KINDS, 0)
    for kind in kinds:
        counts[kind] += 1
    return counts


def counts_at(revision: str) -> dict[str, dict[str, int]]:
    """Per ``src/`` module at ``revision``, its line counts by kind."""
    paths = _git("ls-tree", "-r", "--name-only", revision, "--", "src").split()
    return {path: classify(_git("show", f"{revision}:{path}"))
            for path in paths if path.endswith(".py")}


def _row(name: str, base: dict[str, int], head: dict[str, int]) -> str:
    cells = []
    for kind in (*KINDS, "total"):
        before = sum(base.values()) if kind == "total" else base[kind]
        after = sum(head.values()) if kind == "total" else head[kind]
        cells.append(f"{before:>5} {after:>5} {after - before:>+5}")
    return f"{name:<28}" + "  ".join(cells)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: python3 tools/src_delta.py BASE [HEAD]", file=sys.stderr)
        return 2
    base_rev, head_rev = argv[0], argv[1] if len(argv) == 2 else "HEAD"
    try:
        base, head = counts_at(base_rev), counts_at(head_rev)
    except subprocess.CalledProcessError as exc:
        print(f"git failed: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    empty = dict.fromkeys(KINDS, 0)
    print(f"{'module':<28}" + "  ".join(f"{kind:>17}" for kind in (*KINDS, "total")))
    for path in sorted(base.keys() | head.keys()):
        print(_row(path.removeprefix("src/"), base.get(path, empty), head.get(path, empty)))
    totals = {side: {kind: sum(module[kind] for module in counts.values()) for kind in KINDS}
              for side, counts in (("base", base), ("head", head))}
    print(_row("total", totals["base"], totals["head"]))
    before, after = sum(totals["base"].values()), sum(totals["head"].values())
    kinds = ", ".join(f"{kind} {totals['head'][kind] - totals['base'][kind]:+d}"
                      for kind in KINDS)
    print(f"src/: {before} -> {after} lines ({after - before:+d}): {kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
