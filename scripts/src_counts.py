#!/usr/bin/env python3
"""The design counts of the package source, read with ast and tokenize.

Prints the line and code-line counts of src/wavenvelope (every line of
its .py files, and those that hold code), then each module's, and the
number of optional parameters: the positional and keyword-only defaults
of every def, methods and nested functions included.  A code line is
one that is not blank, a comment or part of a docstring, so a count
that falls only as comments go does not read as less code.
tests/test_package.py reads counts() to hold the package to its
optional-parameter ceiling.  Run from anywhere:

    python3 scripts/src_counts.py
"""

import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "wavenvelope")

# tokens that hold no code of their own
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _sources():
    """(file name, text) of each .py file of src/wavenvelope, by name."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, fh.read()


def code_lines(text: str, tree: ast.AST) -> int:
    """Lines of text that some token other than a comment or a docstring
    touches; a multi-line token touches each of its lines."""
    docs = {(node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(tree) if isinstance(node, _DOCUMENTED)
            and ast.get_docstring(node, clean=False) is not None}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code)


def _module_counts():
    """(file name, lines, code lines, optional parameters) per module."""
    for name, text in _sources():
        tree = ast.parse(text, filename=name)
        optional = 0
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                optional += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
        yield name, len(text.splitlines()), code_lines(text, tree), optional


def counts() -> tuple[int, int]:
    """(lines, optional parameters) of src/wavenvelope."""
    per_module = list(_module_counts())
    return (sum(m[1] for m in per_module), sum(m[3] for m in per_module))


def main() -> None:
    per_module = list(_module_counts())
    print(f"lines {sum(m[1] for m in per_module)}, "
          f"code lines {sum(m[2] for m in per_module)}")
    for name, lines, code, _ in per_module:
        print(f"  {name} {lines} {code}")
    print(f"optional parameters {sum(m[3] for m in per_module)}")


if __name__ == "__main__":
    main()
