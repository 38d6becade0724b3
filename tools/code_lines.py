"""Code lines per module of src/drclqr: lines holding a token outside docstrings and comments.

Run from the repository root: ``python tools/code_lines.py``.  Blank lines,
comment-only lines and the lines of module, class and function docstrings do
not count.  Prints one ``<module> <lines>`` row per module, largest first,
and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with open(path, "rb") as fh:
        lines = {tok.start[0] for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIP}
    return len(lines - docs)


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "drclqr"
    counts = {path.stem: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
