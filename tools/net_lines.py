"""Logical source lines of each module of ``src/gradedbv``, in two trees.

A logical line is a physical line that holds a token of some statement
other than a docstring: comments, blank lines and docstrings (string
statements) do not count.  Each side is a directory (the root of a
checkout) or a git revision of the repository this script lives in.

    python3 tools/net_lines.py 0417e0e HEAD
    python3 tools/net_lines.py ../old-checkout .

prints one row per module, old, new and the delta, then the totals.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/gradedbv"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def logical_lines(source):
    """The number of physical lines spanned by non-docstring statements."""
    lines = set()
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def _git(*args):
    return subprocess.run(("git", "-C", REPO) + args, check=True,
                          capture_output=True, text=True).stdout


def modules(side):
    """{module file name: source} of the package in a directory or at a
    git revision."""
    if os.path.isdir(side):
        return {path.name: path.read_text(encoding="utf-8")
                for path in Path(side, PACKAGE).glob("*.py")}
    names = _git("ls-tree", "--name-only", side, PACKAGE + "/").split()
    return {os.path.basename(path): _git("show", "%s:%s" % (side, path))
            for path in names if path.endswith(".py")}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: net_lines.py OLD NEW  (each a directory or a git "
              "revision)", file=sys.stderr)
        return 64
    old, new = ({name: logical_lines(src) for name, src in modules(side).items()}
                for side in argv)
    rows = [(name, old.get(name, 0), new.get(name, 0))
            for name in sorted(set(old) | set(new))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for name, before, after in rows:
        print("%-16s %6d %6d %+6d" % (name, before, after, after - before))
    return 0


if __name__ == "__main__":
    sys.exit(main())
