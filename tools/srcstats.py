"""Print the size of the library: lines under ``src/`` and public names.

Usage::

    python3 tools/srcstats.py

Counts every line of every ``.py`` file under ``src/`` (blank lines and
comments included), in total and per module, and imports the package
from that tree to count ``ehrhard.__all__``.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import ehrhard  # noqa: E402


def main() -> None:
    files = sorted(SRC.rglob("*.py"))
    counts = {f: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    print(f"src lines: {sum(counts.values())} in {len(files)} files")
    for f, n in counts.items():
        print(f"  {n:6d}  {f.relative_to(SRC)}")
    print(f"ehrhard.__all__: {len(ehrhard.__all__)} names")


if __name__ == "__main__":
    main()
