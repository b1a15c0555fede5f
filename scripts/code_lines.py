"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment or part of a
docstring; blank lines, comment lines and docstring lines do not count.
A docstring is a string literal that is a statement by itself, as
module, class and function docstrings are.  Prints one line per module
and, for more than one module, the total.

Paths are read relative to the working directory.  Usage (from the root
of a checkout):

    python3 scripts/code_lines.py                      # every module of src/bittp
    python3 scripts/code_lines.py src/bittp/cli.py     # named files or directories
"""

from __future__ import annotations

import argparse
import ast
import io
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/bittp")])
    files = []
    for path in parser.parse_args().paths:
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    if len(files) > 1:
        print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
