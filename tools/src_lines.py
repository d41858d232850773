"""Print the physical and code line counts of the package source.

Code lines are non-blank lines that hold something other than comments
and module, class or function docstrings.  Run from anywhere:

    python tools/src_lines.py [DIR]

DIR defaults to the repository's src/ directory; a DIR that is not a
directory exits 2.  Uses the standard library only.
"""

import ast
import io
import os
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(physical lines, code lines) of one Python source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    return (len(source.splitlines()),
            len(code - docstring_lines(ast.parse(source))))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isdir(root):
        print("src_lines: %s is not a directory" % root, file=sys.stderr)
        return 2
    physical = code = 0
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    p, c = count(fh.read())
                physical += p
                code += c
    print("physical %d code %d" % (physical, code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
