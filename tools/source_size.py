"""Print the code lines of each Python file given, and their total.

Code lines are those left after blank, comment and docstring lines (module,
class and function docstrings). CI's "Source size" step runs it as

    python tools/source_size.py src/uavex/*.py
"""

import ast
import sys
import tokenize

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
        fh.seek(0)
        lines = {line for token in tokenize.tokenize(fh.readline)
                 if token.type not in BLANK
                 for line in range(token.start[0], token.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        count = code_lines(path)
        print(f"{count:8d} {path}")
        total += count
    print(f"{total:8d} code lines in total")


if __name__ == "__main__":
    main(sys.argv[1:])
