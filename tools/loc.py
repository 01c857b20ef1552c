"""Count the lines of each module of src/aqbernstein by kind: code,
docstring, comment and blank.

A docstring is the first statement of a module, class or function when
that statement is a string; all its lines count as docstring lines, blank
ones included. A comment line holds a comment and no code; a blank line
is empty or whitespace outside a docstring; every other line is code.
Standard library only. Run from the repository root:

    python tools/loc.py
"""

import ast
import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = "{:<18}" + "{:>10}" * len(KINDS)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Lines of ``source`` by kind."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    layout = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif number in comments:
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def main() -> int:
    root = pathlib.Path("src/aqbernstein")
    totals = dict.fromkeys(KINDS, 0)
    print(LAYOUT.format("module", *KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text())
        print(LAYOUT.format(path.name, *counts.values()))
        for kind in KINDS:
            totals[kind] += counts[kind]
    print(LAYOUT.format("total", *totals.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
