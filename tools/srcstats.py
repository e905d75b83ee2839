"""Print the size of the library: lines under ``src/``, public names and
what an import loads.

Usage::

    python3 tools/srcstats.py [BASE]

Counts, in total and per module, every line of every ``.py`` file under
``src/`` (blank lines and comments included) and its code-only lines: the
lines that hold a token of code, with blank lines, comments and
docstrings left out. A docstring is the string literal that opens a
module, class or function body (found with ``ast``); the other tokens are
read with ``tokenize``, and a token that spans lines counts on each of
them. Then it counts ``ehrhard.__all__``, importing the package from that
tree in a child process. In the same process, before ``__all__`` is read
(reading it binds the catalog), it lists the modules that ``import
ehrhard``, and then that import with ``import ehrhard.cli`` after it,
add to ``sys.modules``: the ``ehrhard.*`` modules, and the top-level
public stdlib modules (no dot, no leading underscore, in
``sys.stdlib_module_names``). Modules loaded before the first import, by
``site`` for one, do not count.

With ``BASE``, a checkout of another commit (usually the parent), it
counts that tree's ``src/`` too and prints each count as base -> this
checkout with the difference: the totals, each module (0 where a tree
lacks it) and ``ehrhard.__all__``, then the names this checkout adds to
``ehrhard.__all__`` and those it removes, one line each (none when the
API is unchanged), then each import's module count with the modules it
adds and those it drops. One process cannot import two copies of the
package, so each tree is read in a process of its own.
"""

from __future__ import annotations

import ast
import io
import json
import subprocess
import sys
import textwrap
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


IMPORTS = ("ehrhard", "ehrhard.cli")

# Run in a child process with the tree's src/ as its argument: prints
# {"imports": {statement: [module, ...]}, "names": ehrhard.__all__}.
PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
imports = {}
for name in sys.argv[2:]:
    importlib.import_module(name)
    imports["import " + name] = sorted(
        m for m in set(sys.modules) - before
        if m.split(".")[0] == "ehrhard"
        or ("." not in m and not m.startswith("_") and m in sys.stdlib_module_names)
    )
import ehrhard
print(json.dumps({"imports": imports, "names": ehrhard.__all__}))
"""


def probe(src: Path) -> tuple[dict[str, list[str]], list[str]]:
    """The modules each of ``IMPORTS`` loads, in turn, in a fresh
    interpreter, from the package under ``src``; and its ``ehrhard.__all__``."""
    cmd = [sys.executable, "-c", PROBE, src, *IMPORTS]
    doc = json.loads(subprocess.run(cmd, capture_output=True, check=True, text=True).stdout)
    return doc["imports"], doc["names"]


def tree_stats(root: Path) -> tuple[dict[str, tuple[int, int]], dict[str, list[str]], list[str]]:
    """Per module under ``root/src``, its (lines, code lines); the modules
    each import loads; and ``ehrhard.__all__``."""
    src = root / "src"
    counts = {}
    for f in sorted(src.rglob("*.py")):
        text = f.read_text(encoding="utf-8")
        counts[str(f.relative_to(src))] = (len(text.splitlines()), code_lines(text))
    return (counts, *probe(src))


def change(old: int, new: int) -> str:
    return f"{old} -> {new} ({new - old:+d})"


def signed(new: list[str], old: list[str]) -> None:
    """One line per item ``new`` adds (``+``) or drops (``-``) against ``old``."""
    for sign, diff in (("+", set(new) - set(old)), ("-", set(old) - set(new))):
        for item in sorted(diff):
            print(f"  {sign} {item}")


def main() -> None:
    counts, imports, names = tree_stats(ROOT)
    total, code = (sum(col) for col in zip(*counts.values()))
    if len(sys.argv) < 2:
        print(f"src lines: {total} in {len(counts)} files, {code} of them code")
        print(f"  {'lines':>6}  {'code':>6}")
        for f, (n, c) in counts.items():
            print(f"  {n:6d}  {c:6d}  {f}")
        print(f"ehrhard.__all__: {len(names)} names")
        for statement, modules in imports.items():
            print(f"{statement}: {len(modules)} modules")
            print(textwrap.fill(" ".join(modules), initial_indent="  ", subsequent_indent="  "))
        return
    base, base_imports, base_names = tree_stats(Path(sys.argv[1]))
    base_total, base_code = (sum(col) for col in zip(*base.values()))
    print(f"src lines: {change(base_total, total)}, code {change(base_code, code)}")
    print(f"  {'lines':>20}  {'code':>20}")
    for f in sorted(base.keys() | counts.keys()):
        (bn, bc), (n, c) = base.get(f, (0, 0)), counts.get(f, (0, 0))
        print(f"  {change(bn, n):>20}  {change(bc, c):>20}  {f}")
    print(f"ehrhard.__all__: {change(len(base_names), len(names))} names")
    signed(names, base_names)
    for statement, modules in imports.items():
        print(f"{statement}: {change(len(base_imports[statement]), len(modules))} modules")
        signed(modules, base_imports[statement])


if __name__ == "__main__":
    main()
