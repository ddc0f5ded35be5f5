"""Count the raw and code lines of each module of ``src/ksbound``.

Usage, from anywhere:

    python3 tools/src_lines.py [package directory]

A code line holds a token other than a comment once module, class and
function docstrings are dropped (``ast`` finds the docstrings, ``tokenize``
the tokens); a statement or string spanning several lines counts each of
them.  Raw lines are those ``wc -l`` counts.  One row is printed per module,
sorted by name, then the totals.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ksbound"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's text."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    paths = sorted(package.glob("*.py"))
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in paths]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'raw':>5}  {'code':>5}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>5}  {code:>5}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>5}  {sum(r[2] for r in rows):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
