"""Write the CLI's output on a fixed command matrix, one directory per command.

Usage::

    python3 tools/golden.py OUTDIR

The matrix: ``catalog NAME --out DIR`` for every catalog entry, ``sweep``
for every family, and on each entry's profile ``rigidity`` (three
methods), ``counterexample``, ``connectedness`` (two kinds), ``render``
(the profile and its model set), ``perimeter`` and ``symmetrize`` (two
modes) of the model set, and ``rigidity``, ``connectedness`` and
``perimeter`` once more with their JSON on stdout. On one hand-built
profile with zeros of both signs it runs ``rigidity`` (theorem),
``counterexample``, ``connectedness`` (two kinds), and ``perimeter`` and
``symmetrize`` (two modes) of the model set. On ``mistico`` at h = 1/32,
whose scene spans many of the report writer's chunks, it runs
``connectedness`` once to ``--out`` and once to stdout. Then come
``phi``, ``psi``, the ``catalog`` listing and three input errors (exit
1). Each command's
directory holds its ``stdout``, ``stderr``, ``exit`` code and the files
it wrote. The inputs are built by the library under test, from the
``src`` tree next to this script.

Run one copy of this script in two trees and compare the outputs with
``diff -r``: equal trees mean byte-identical CLI output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Iterable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ehrhard import Facet, Grid, Profile, SingularAnnotation  # noqa: E402
from ehrhard.catalog import catalog_names, run_entry  # noqa: E402
from ehrhard.cli import main  # noqa: E402
from ehrhard.jsonio import columnar_to_json, profile_to_json  # noqa: E402
from ehrhard.profiles import from_profile  # noqa: E402

INF = math.inf
SWEEP_FAMILIES = ("mistico", "unannotated", "koch")

# label -> argv; "{profile}", "{model}" and "{out}" are filled in per entry.
PROFILE_COMMANDS = {
    "rigidity-theorem": ["rigidity", "--method", "theorem", "--in", "{profile}", "--out", "{out}"],
    "rigidity-planar": ["rigidity", "--method", "planar", "--in", "{profile}", "--out", "{out}"],
    "rigidity-search": ["rigidity", "--method", "search", "--in", "{profile}", "--out", "{out}"],
    "counterexample": ["counterexample", "--in", "{profile}", "--out", "{out}"],
    "connectedness-ehrhard": ["connectedness", "--kind", "ehrhard", "--in", "{profile}", "--out", "{out}"],
    "connectedness-steiner": ["connectedness", "--kind", "steiner", "--in", "{profile}", "--out", "{out}"],
    "render-profile": ["render", "--in", "{profile}", "--out", "{out}"],
    "render-model": ["render", "--in", "{model}", "--out", "{out}"],
    "perimeter": ["perimeter", "--in", "{model}", "--out", "{out}"],
    "symmetrize-ehrhard": ["symmetrize", "--mode", "ehrhard", "--in", "{model}", "--out", "{out}"],
    "symmetrize-steiner": ["symmetrize", "--mode", "steiner", "--in", "{model}", "--out", "{out}"],
    "rigidity-stdout": ["rigidity", "--in", "{profile}"],
    "connectedness-stdout": ["connectedness", "--in", "{profile}"],
    "perimeter-stdout": ["perimeter", "--in", "{model}"],
}

# the labels run on mistico at h = 1/32: a scene of many chunks, to a file and to stdout
LARGE_SCENE_COMMANDS = ("connectedness-ehrhard", "connectedness-stdout")

# the labels run on the hand-built signed-zero profile
SIGNED_ZERO_COMMANDS = (
    "rigidity-theorem",
    "connectedness-ehrhard",
    "connectedness-steiner",
    "counterexample",
    "perimeter",
    "symmetrize-ehrhard",
    "symmetrize-steiner",
)

# label -> argv of commands that read no entry; "{other}" is a JSON object that
# is neither a profile nor a columnar set. No error here names a file, so two
# trees in different directories write the same bytes.
SINGLE_COMMANDS = {
    "phi": ["phi", "1.0"],
    "psi": ["psi", "0.25"],
    "catalog-list": ["catalog"],
    "catalog-unknown": ["catalog", "no-such-entry"],
    "sweep-no-family": ["sweep"],
    "render-other": ["render", "--in", "{other}"],
}


def run(argv: list[str], where: Path) -> None:
    """Run one CLI command in-process and record stdout, stderr and exit code."""
    where.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    (where / "stdout").write_text(out.getvalue(), encoding="utf-8")
    (where / "stderr").write_text(err.getvalue(), encoding="utf-8")
    (where / "exit").write_text(f"{code}\n", encoding="utf-8")


def signed_zero_profile() -> Profile:
    """A 2-D profile whose cell values hold both 0.0 and -0.0, with an
    annotation of wedge -0.0 that blocks the interface between two G-cells
    and so separates G: its scenes, its mirrored competitor and its model
    set carry zeros of both signs, which print differently."""
    grid = Grid((-INF, -1.0, 0.0, 1.0, INF), (-1.0, 0.0, 1.0))
    values = [[0.5, 0.5], [0.5, -0.0], [0.0, 0.5], [0.25, 0.5]]
    cells = {(i, j): v for i, row in enumerate(values) for j, v in enumerate(row)}
    return Profile(grid, cells, [SingularAnnotation(Facet(0, 1, 0), -0.0, 0.5)])


def run_profile(outdir: Path, name: str, p: Profile, labels: Iterable[str]) -> None:
    """Run the ``PROFILE_COMMANDS`` of ``labels`` on the profile ``p``."""
    inputs = outdir / "inputs" / name
    inputs.mkdir(parents=True, exist_ok=True)
    files = {"profile": inputs / "profile.json", "model": inputs / "model.json"}
    files["profile"].write_text(json.dumps(profile_to_json(p)), encoding="utf-8")
    files["model"].write_text(json.dumps(columnar_to_json(from_profile(p))), encoding="utf-8")
    for label in labels:
        where = outdir / "profile" / name / label
        fill = {k: str(v) for k, v in files.items()}
        fill["out"] = str(where / "artifact")
        run([arg.format(**fill) for arg in PROFILE_COMMANDS[label]], where)


def write_matrix(outdir: Path) -> None:
    for name in catalog_names():
        entry = outdir / "catalog" / name
        run(["catalog", name, "--out", str(entry / "files")], entry)
        run_profile(outdir, name, run_entry(name).profile, PROFILE_COMMANDS)
    run_profile(outdir, "signed-zero", signed_zero_profile(), SIGNED_ZERO_COMMANDS)
    large = run_entry("mistico", resolution=1 / 32).profile
    run_profile(outdir, "mistico-h1_32", large, LARGE_SCENE_COMMANDS)
    for family in SWEEP_FAMILIES:
        where = outdir / "sweep" / family
        run(["sweep", "--family", family, "--out", str(where / "artifact")], where)
    other = outdir / "inputs" / "other.json"
    other.write_text(json.dumps({"neither": []}), encoding="utf-8")
    for label, template in SINGLE_COMMANDS.items():
        run([arg.format(other=other) for arg in template], outdir / "single" / label)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/golden.py OUTDIR")
    write_matrix(Path(sys.argv[1]))
