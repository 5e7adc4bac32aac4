#!/usr/bin/env python3
"""Code, docstring and comment lines of each module of a source tree's solver.

    python3 tools/code_lines.py TREE

Counts the lines of every ``TREE/src/arcipm/*.py`` module by one rule.  A
docstring line is any line of a module, class or function docstring, blank
ones included.  Of the other lines, blank ones are skipped, lines whose
first non-blank character is ``#`` are comments, and the rest are code; a
code line with a trailing comment is code.  It prints one row per module
and a total row.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int, int]:
    """(code, docstring, comment) lines of one module's source."""
    docstrings = docstring_lines(source)
    code = comments = 0
    for number, line in enumerate(source.splitlines(), 1):
        stripped = line.strip()
        if number in docstrings or not stripped:
            continue
        if stripped.startswith("#"):
            comments += 1
        else:
            code += 1
    return code, len(docstrings), comments


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="a checkout holding src/arcipm")
    args = parser.parse_args(argv)
    totals = [0, 0, 0]
    print(f"{'module':<16}{'code':>8}{'docstring':>11}{'comment':>9}")
    for path in sorted((args.tree / "src" / "arcipm").glob("*.py")):
        counts = count_lines(path.read_text())
        totals = [total + count for total, count in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>8}{counts[1]:>11}{counts[2]:>9}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>11}{totals[2]:>9}")


if __name__ == "__main__":
    main()
