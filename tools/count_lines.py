"""Count the code, docstring and comment lines of each module under ``src/``.

    python3 tools/count_lines.py

A docstring line is a line of a module, class or function docstring; a
comment line holds nothing but a comment; a code line is any other line
that is not blank, so a line of code with a comment after it is code.
Deleted docstrings and comments do not make less code, so a change that
claims less code compares the code column of two trees.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int, int]:
    """(code, docstring, comment) lines of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs)


def main() -> None:
    totals = [0, 0, 0]
    print(f"{'module':<24}{'code':>6}{'doc':>6}{'comment':>9}")
    for path in sorted(SRC.rglob("*.py")):
        counts = count(path.read_text())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{str(path.relative_to(SRC)):<24}{counts[0]:>6}{counts[1]:>6}{counts[2]:>9}")
    print(f"{'total':<24}{totals[0]:>6}{totals[1]:>6}{totals[2]:>9}")


if __name__ == "__main__":
    main()
