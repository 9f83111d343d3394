"""Code lines of each ``src/mchb`` module.

Usage: ``python tools/loc.py [<commit>]``

A line counts when a token of code sits on it; a string or an expression
that spans lines counts each line it spans.  Comments, blank lines and
docstrings (the leading string of a module, class or function) do not
count, so deleting them does not shrink the figure.  Given a commit, its
``src/`` is exported with ``git archive``, as ``tools/agree.py`` does, and
counted beside this checkout's.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tarfile
import tokenize
from pathlib import Path

PACKAGE = "src/mchb"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def checkout_sources(root: Path) -> dict[str, str]:
    """Module name to source of the package in the checkout at ``root``."""
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted((root / PACKAGE).glob("*.py"))}


def commit_sources(root: Path, commit: str) -> dict[str, str]:
    """Module name to source of the package at ``commit``."""
    archive = subprocess.run(["git", "-C", str(root), "archive",
                              "--format=tar", commit, PACKAGE],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        return {Path(m.name).name: tar.extractfile(m).read().decode("utf-8")
                for m in sorted(tar.getmembers(), key=lambda m: m.name)
                if m.isfile() and m.name.endswith(".py")}


def table(counts: dict[str, dict[str, int]]) -> list[str]:
    """A header, one line per module and a total, a column per tree of
    ``counts``."""
    trees = list(counts)
    names = sorted({name for tree in counts.values() for name in tree})
    rows = [["module", *trees]]
    rows += [[name, *(str(counts[t].get(name, "-")) for t in trees)]
             for name in names]
    rows.append(["total", *(str(sum(counts[t].values())) for t in trees)])
    width = max(len(r[0]) for r in rows)
    return ["  ".join([r[0].ljust(width), *(c.rjust(10) for c in r[1:])])
            for r in rows]


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parents[1]
    counts = {}
    if argv:
        counts[argv[0][:10]] = {name: code_lines(src) for name, src
                                in commit_sources(root, argv[0]).items()}
    counts["checkout"] = {name: code_lines(src) for name, src
                          in checkout_sources(root).items()}
    print("\n".join(table(counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
