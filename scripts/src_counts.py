#!/usr/bin/env python3
"""The two design counts of the package source, read with ast.

Prints the line count of src/wavenvelope (every line of its .py files)
and the number of optional parameters: the positional and keyword-only
defaults of every def, methods and nested functions included.
tests/test_package.py reads counts() to hold the package to its
optional-parameter ceiling.  Run from anywhere:

    python3 scripts/src_counts.py
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "wavenvelope")


def counts() -> tuple[int, int]:
    """(lines, optional parameters) of src/wavenvelope."""
    lines = optional = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            text = fh.read()
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                optional += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    return lines, optional


def main() -> None:
    lines, optional = counts()
    print(f"lines {lines}")
    print(f"optional parameters {optional}")


if __name__ == "__main__":
    main()
