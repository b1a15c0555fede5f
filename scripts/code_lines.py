"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment or part of a
docstring; blank lines, comment lines and docstring lines do not count.
A docstring is a string literal that is a statement by itself, as
module, class and function docstrings are.  Prints one line per module
and, for more than one module, the total.  With ``--against REV`` each line
gives the count at the git revision ``REV`` (read with ``git show``; 0 where
the module does not exist there), today's count and the difference.

Paths are read relative to the working directory.  Usage (from the root
of a checkout):

    python3 scripts/code_lines.py                      # every module of src/bittp
    python3 scripts/code_lines.py src/bittp/cli.py     # named files or directories
    python3 scripts/code_lines.py --against HEAD~1     # before, after, difference
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
            node.value.value, str
        ):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True)


def _modules(paths: list[Path], rev: str | None) -> list[Path]:
    """The ``.py`` files named by ``paths``, today and, with ``rev``, at ``rev``."""
    files = set()
    for path in paths:
        if not path.is_dir() and path.suffix == ".py":
            files.add(path)
            continue
        files.update(path.glob("*.py"))
        if rev is not None:
            listed = _git("ls-tree", "--name-only", rev, f"./{path.as_posix()}/").stdout.split()
            files.update(Path(name) for name in listed if name.endswith(".py"))
    return sorted(files)


def _count_at(rev: str | None, path: Path) -> int:
    """Code lines of ``path`` at ``rev`` (today's file for None); 0 where it
    does not exist."""
    if rev is None:
        return code_lines(path.read_text(encoding="utf-8")) if path.exists() else 0
    shown = _git("show", f"{rev}:./{path.as_posix()}")
    return code_lines(shown.stdout) if shown.returncode == 0 else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/bittp")])
    parser.add_argument("--against", metavar="REV", help="also count each module at this git revision")
    args = parser.parse_args()
    rev = args.against
    if rev is not None and _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").returncode:
        sys.exit(f"code_lines.py: unknown revision {rev!r}")
    files = _modules(args.paths, rev)
    rows = [(_count_at(rev, path), _count_at(None, path), str(path)) for path in files]
    if len(rows) > 1:
        rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    for before, after, name in rows:
        if rev is None:
            print(f"{after:6d}  {name}")
        else:
            print(f"{before:6d} {after:6d} {after - before:+6d}  {name}")


if __name__ == "__main__":
    main()
