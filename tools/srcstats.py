"""Print the size of the library: lines under ``src/`` and public names.

Usage::

    python3 tools/srcstats.py

Counts, in total and per module, every line of every ``.py`` file under
``src/`` (blank lines and comments included) and its code-only lines: the
lines that hold a token of code, with blank lines, comments and
docstrings left out. A docstring is the string literal that opens a
module, class or function body (found with ``ast``); the other tokens are
read with ``tokenize``, and a token that spans lines counts on each of
them. Then it imports the package from that tree to count
``ehrhard.__all__``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import ehrhard  # noqa: E402

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code, not counting
    docstrings, comments and blank lines."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    files = sorted(SRC.rglob("*.py"))
    texts = {f: f.read_text(encoding="utf-8") for f in files}
    counts = {f: (len(t.splitlines()), code_lines(t)) for f, t in texts.items()}
    total = sum(n for n, _ in counts.values())
    code = sum(c for _, c in counts.values())
    print(f"src lines: {total} in {len(files)} files, {code} of them code")
    print(f"  {'lines':>6}  {'code':>6}")
    for f, (n, c) in counts.items():
        print(f"  {n:6d}  {c:6d}  {f.relative_to(SRC)}")
    print(f"ehrhard.__all__: {len(ehrhard.__all__)} names")


if __name__ == "__main__":
    main()
