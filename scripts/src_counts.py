#!/usr/bin/env python3
"""The two design counts of the package source, read with ast.

Prints the line count of src/wavenvelope (every line of its .py files),
then each module's, and the number of optional parameters: the
positional and keyword-only defaults of every def, methods and nested
functions included.
tests/test_package.py reads counts() to hold the package to its
optional-parameter ceiling.  Run from anywhere:

    python3 scripts/src_counts.py
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "wavenvelope")


def _sources():
    """(file name, text) of each .py file of src/wavenvelope, by name."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, fh.read()


def counts() -> tuple[int, int]:
    """(lines, optional parameters) of src/wavenvelope."""
    lines = optional = 0
    for name, text in _sources():
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                optional += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    return lines, optional


def main() -> None:
    lines, optional = counts()
    print(f"lines {lines}")
    for name, text in _sources():
        print(f"  {name} {len(text.splitlines())}")
    print(f"optional parameters {optional}")


if __name__ == "__main__":
    main()
