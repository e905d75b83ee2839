"""Print the size of the library: lines under ``src/`` and public names.

Usage::

    python3 tools/srcstats.py [BASE]

Counts, in total and per module, every line of every ``.py`` file under
``src/`` (blank lines and comments included) and its code-only lines: the
lines that hold a token of code, with blank lines, comments and
docstrings left out. A docstring is the string literal that opens a
module, class or function body (found with ``ast``); the other tokens are
read with ``tokenize``, and a token that spans lines counts on each of
them. Then it counts ``ehrhard.__all__``, importing the package from that
tree in a child process.

With ``BASE``, a checkout of another commit (usually the parent), it
counts that tree's ``src/`` too and prints each count as base -> this
checkout with the difference: the totals, each module (0 where a tree
lacks it) and ``ehrhard.__all__``, then the names this checkout adds to
``ehrhard.__all__`` and those it removes, one line each (none when the
API is unchanged). One process cannot import two copies of the package,
so each tree's names are read in a process of its own.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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


def public_names(src: Path) -> list[str]:
    """``ehrhard.__all__`` of the package under ``src``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ehrhard; print(*ehrhard.__all__)"
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, check=True, text=True)
    return run.stdout.split()


def tree_stats(root: Path) -> tuple[dict[str, tuple[int, int]], list[str]]:
    """Per module under ``root/src``, its (lines, code lines); and
    ``ehrhard.__all__``."""
    src = root / "src"
    counts = {}
    for f in sorted(src.rglob("*.py")):
        text = f.read_text(encoding="utf-8")
        counts[str(f.relative_to(src))] = (len(text.splitlines()), code_lines(text))
    return counts, public_names(src)


def change(old: int, new: int) -> str:
    return f"{old} -> {new} ({new - old:+d})"


def main() -> None:
    counts, names = tree_stats(ROOT)
    total, code = (sum(col) for col in zip(*counts.values()))
    if len(sys.argv) < 2:
        print(f"src lines: {total} in {len(counts)} files, {code} of them code")
        print(f"  {'lines':>6}  {'code':>6}")
        for f, (n, c) in counts.items():
            print(f"  {n:6d}  {c:6d}  {f}")
        print(f"ehrhard.__all__: {len(names)} names")
        return
    base, base_names = tree_stats(Path(sys.argv[1]))
    base_total, base_code = (sum(col) for col in zip(*base.values()))
    print(f"src lines: {change(base_total, total)}, code {change(base_code, code)}")
    print(f"  {'lines':>20}  {'code':>20}")
    for f in sorted(base.keys() | counts.keys()):
        (bn, bc), (n, c) = base.get(f, (0, 0)), counts.get(f, (0, 0))
        print(f"  {change(bn, n):>20}  {change(bc, c):>20}  {f}")
    print(f"ehrhard.__all__: {change(len(base_names), len(names))} names")
    for sign, diff in (("+", set(names) - set(base_names)), ("-", set(base_names) - set(names))):
        for name in sorted(diff):
            print(f"  {sign} {name}")


if __name__ == "__main__":
    main()
