"""Count the lines and the code lines of each module of ``src/coopsec``.

Usage, from the repository root::

    python3 tools/code_lines.py [BASE [CHANGE]]

``BASE`` and ``CHANGE`` are checkout directories (``CHANGE`` defaults to
this one); a copy of a commit made with ``git archive`` will do.  For each
module the tool prints its total lines and its code lines: lines that are
not blank, not only a comment, and not inside a module, class or function
docstring.  A last row gives the totals.  With ``BASE`` it also prints the
base's two counts and the change's deltas; a module on one side only counts
as zero lines on the other.

Deleting a comment or a docstring leaves the code count as it was, so the
code count is the size a simplification is judged by.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that put no code on a line
_NO_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""

    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of a module's source."""

    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NO_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> dict[str, tuple[int, int]]:
    """:func:`count_lines` of every module of ``root/src/coopsec``, by file name."""

    package = root / "src" / "coopsec"
    if not package.is_dir():
        raise SystemExit(f"no coopsec package under {root}")
    return {
        path.name: count_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def _counts(tree: dict[str, tuple[int, int]], name: str) -> tuple[int, int]:
    """The counts of module ``name`` in ``tree``, or of the whole tree for ``total``."""

    if name == "total":
        return sum(lines for lines, _ in tree.values()), sum(code for _, code in tree.values())
    return tree.get(name, (0, 0))


def report(change: dict[str, tuple[int, int]], base: dict[str, tuple[int, int]] | None) -> str:
    """The table :func:`main` prints."""

    header = ["module", "lines", "code"]
    if base is not None:
        header += ["base lines", "base code", "d lines", "d code"]
    rows = []
    for name in sorted(set(change) | set(base or {})) + ["total"]:
        lines, code = _counts(change, name)
        row = [name, lines, code]
        if base is not None:
            base_lines, base_code = _counts(base, name)
            row += [base_lines, base_code, f"{lines - base_lines:+d}", f"{code - base_code:+d}"]
        rows.append(row)
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    return "\n".join(
        "  ".join(
            str(cell).ljust(width) if i == 0 else str(cell).rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        )
        for row in [header, *rows]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", type=Path, help="checkout to compare against")
    parser.add_argument("change", nargs="?", type=Path, default=ROOT, help="checkout to count")
    args = parser.parse_args(argv)
    base = None if args.base is None else count_tree(args.base)
    print(report(count_tree(args.change), base))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
