"""Code, docstring, comment and blank lines of each module of ``src/smoothent``.

A docstring line is any line of a module's, class's or function's
docstring, blank ones included.  A comment line holds a comment and no
code.  A code line is any other line that is not blank, so a line of code
with a trailing comment counts as code, and so does a string that is not a
docstring.  Prints one row per module and their totals.  ``--against DIR``
counts the modules of another ``smoothent`` package directory too (say, a
checkout of the parent commit) and prints the change of each total.

Usage: ``python3 scripts/src_lines.py [--against DIR] [DIR]``
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SRC = Path(__file__).resolve().parents[1] / "src" / "smoothent"


def count(text: str) -> dict:
    """The number of lines of each kind in the Python source ``text``."""
    lines = text.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                kind[doc.lineno - 1 : doc.end_lineno] = ["docstring"] * (doc.end_lineno - doc.lineno + 1)
    code_rows = set()
    comment_rows = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment_rows.add(tok.start[0])
        elif tok.type not in skip:
            code_rows.update(range(tok.start[0], tok.end[0] + 1))
    for row in comment_rows - code_rows:
        kind[row - 1] = "comment"
    return {k: kind.count(k) for k in KINDS} | {"total": len(lines)}


def table(package: Path) -> dict:
    return {path.name: count(path.read_text()) for path in sorted(package.glob("*.py"))}


def totals(rows: dict) -> dict:
    return {k: sum(row[k] for row in rows.values()) for k in (*KINDS, "total")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=SRC)
    parser.add_argument("--against", type=Path, help="another package directory to compare with")
    args = parser.parse_args()
    rows = table(args.package)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in (*KINDS, "total")))
    for name, row in {**rows, "all": totals(rows)}.items():
        print(f"{name:<16}" + "".join(f"{row[k]:>10}" for k in (*KINDS, "total")))
    if args.against:
        before = totals(table(args.against))
        after = totals(rows)
        print(f"{'change':<16}" + "".join(f"{after[k] - before[k]:>+10}" for k in (*KINDS, "total")))


if __name__ == "__main__":
    main()
