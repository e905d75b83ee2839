"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one has returned. Constructing a ``Workload``
imports the library and generates the inputs from the seed (this is what
``setup_s`` times); its ``jobs`` are the operations of one pass. A job is a
call into the library, which the harness times, and a check of its output,
which runs outside the timing and returns an ``Outcome``.

The library is reached only through its public names, looked up on the
``ehrhard`` package (or ``ehrhard.cli``) at call time, so the tracer can
wrap them."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"

WORKLOADS = ("suite-1d", "grid-2d", "cli-report")

# suite-1d: pool of random profiles swept once per pass.
SUITE_POOL = {"full": 3000, "tiny": 30}
# grid-2d: (catalog entry, resolution) pairs of one pass.
GRID_JOBS = {
    "full": (
        ("mistico", 1 / 8),
        ("mistico", 1 / 16),
        ("mistico", 1 / 32),
        ("mistico", 1 / 64),
        ("koch", 1 / 32),
    ),
    "tiny": (("mistico", 1 / 8), ("koch", 1 / 8)),
}
# cli-report: resolution of the two profile files, and the commands run on each.
CLI_RESOLUTION = {"full": 1 / 32, "tiny": 1 / 8}
CLI_COMMANDS = ("rigidity", "connectedness", "render")

INF = math.inf
MIN_SPACING = 1e-3
FLOAT_TOL = 1e-12


class Outcome(NamedTuple):
    ok: bool
    partitions: int = 0
    bytes_json: int = 0
    bytes_svg: int = 0


class Job(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


# ----------------------------------------------------------------------
# suite-1d inputs: the generator family of tests/conftest.py
# (random_breakpoints, random_value, random_profile_1d with their defaults),
# so a seed gives the same profiles here as there.


def _random_breakpoints(rng: random.Random, max_cells: int = 12, p_inf: float = 0.3):
    n_cells = rng.randint(1, max_cells)
    while True:
        pts = sorted(rng.uniform(-3.0, 3.0) for _ in range(n_cells + 1))
        if all(b - a >= MIN_SPACING for a, b in zip(pts, pts[1:])):
            break
    if rng.random() < p_inf:
        pts[0] = -INF
    if rng.random() < p_inf:
        pts[-1] = INF
    return tuple(pts)


def _random_value(rng: random.Random, p_extreme: float = 0.2) -> float:
    r = rng.random()
    if r < p_extreme / 2.0:
        return 0.0
    if r < p_extreme:
        return 1.0
    while True:
        v = rng.random()
        if min(v, 1.0 - v) >= 1e-5:
            return v


def random_profile_1d(ehrhard, rng: random.Random, max_cells: int = 12, max_g_cells: int = 10):
    """Unannotated 1-D profile with at most ``max_g_cells`` cells in G."""
    while True:
        grid = ehrhard.Grid(_random_breakpoints(rng, max_cells))
        values = {cid: _random_value(rng) for cid in grid.cells()}
        p = ehrhard.Profile(grid, values)
        if len(p.g_cells()) <= max_g_cells:
            return p


# ----------------------------------------------------------------------
# cli-report inputs: the catalog's mistico and koch (iteration 2) profiles,
# rebuilt here from public names so the files are generated inputs.


def mistico_profile(ehrhard, h: float):
    n = round(2.0 / h)
    axis = ehrhard.Grid.regular(-1.0, 1.0, n)
    grid = ehrhard.Grid(axis, axis)
    values = {}
    for i in range(n):
        for j in range(n):
            cx = 0.5 * (axis[i] + axis[i + 1])
            cy = 0.5 * (axis[j] + axis[j + 1])
            values[(i, j)] = 1.0 - abs(cy) if cx > 0.0 else abs(cy)
    annotations = []
    for i in range(n):
        cx = 0.5 * (axis[i] + axis[i + 1])
        facet = ehrhard.Facet(1, n // 2, i)
        if cx > 0.0:
            annotations.append(ehrhard.SingularAnnotation(facet, 1.0 - 0.5 * h, 1.0))
        else:
            annotations.append(ehrhard.SingularAnnotation(facet, 0.0, 0.5 * h))
    return ehrhard.Profile(grid, values, annotations)


def koch_profile(ehrhard, h: float, iterations: int = 2):
    n = round(3.0 / h)
    axis = ehrhard.Grid.regular(-1.5, 1.5, n)
    grid = ehrhard.Grid(axis, axis)
    polygon = ehrhard.koch_snowflake(iterations)
    centers = [-1.5 + (k + 0.5) * h for k in range(n)]
    inside = [[False] * n for _ in range(n)]
    m = len(polygon)
    for j, cy in enumerate(centers):
        hits = []
        for idx in range(m):
            px, py = polygon[idx]
            qx, qy = polygon[(idx + 1) % m]
            if (py > cy) != (qy > cy):
                hits.append(px + (cy - py) * (qx - px) / (qy - py))
        hits.sort()
        for i, cx in enumerate(centers):
            inside[i][j] = (len(hits) - bisect.bisect_right(hits, cx)) % 2 == 1
    annotations = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n and inside[i][j] != inside[i + 1][j]:
                annotations.append(
                    ehrhard.SingularAnnotation(ehrhard.Facet(0, i + 1, j), 0.0, 0.5)
                )
            if j + 1 < n and inside[i][j] != inside[i][j + 1]:
                annotations.append(
                    ehrhard.SingularAnnotation(ehrhard.Facet(1, j + 1, i), 0.0, 0.5)
                )
    return ehrhard.Profile(grid, {cid: 0.5 for cid in grid.cells()}, annotations)


def cli_inputs(ehrhard, h: float) -> dict:
    """Input name -> profile, for the cli-report files at resolution ``h``."""
    return {
        f"mistico-h{h}": mistico_profile(ehrhard, h),
        f"koch-h{h}": koch_profile(ehrhard, h),
    }


# ----------------------------------------------------------------------
# output digests shared by the checks and by record_expected.py


def cells_digest(cells) -> dict:
    """Order-free exact digest of a list of cell ids."""
    canon = sorted(tuple(int(x) for x in c) for c in cells)
    blob = json.dumps(canon, separators=(",", ":")).encode()
    return {"count": len(canon), "sha256": hashlib.sha256(blob).hexdigest()}


def summarize_rigidity(doc: dict) -> dict:
    out = {"verdict": doc["verdict"]}
    cert = doc.get("certificate")
    if cert is not None:
        out["minus_cells"] = cells_digest(cert["minus_cells"])
        out["plus_cells"] = cells_digest(cert["plus_cells"])
    pc = doc.get("perimeter_check")
    if pc is not None:
        out["perimeter_check"] = {k: pc[k] for k in ("candidate", "symmetral", "difference")}
    return out


def summarize_connectedness(doc: dict) -> dict:
    witness = doc["witness"]
    out = {
        "disconnects": doc["disconnects"],
        "scene_cells": len(doc["scene"]["cells"]),
        "scene_facets": len(doc["scene"]["facets"]),
    }
    if doc["disconnects"]:
        out["minus_cells"] = cells_digest(witness["minus_cells"])
        out["plus_cells"] = cells_digest(witness["plus_cells"])
    else:
        out["cells"] = cells_digest(witness["cells"])
    return out


def matches(expected, actual) -> bool:
    """Expected structure equals actual: exact except floats (1e-12)."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(matches(expected[k], actual[k]) for k in expected)
        )
    if isinstance(expected, float) and not isinstance(actual, bool):
        return isinstance(actual, (int, float)) and math.isclose(
            expected, actual, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL
        )
    return type(expected) is type(actual) and expected == actual


# ----------------------------------------------------------------------
# workloads


def _suite_jobs(ehrhard, profiles) -> list[Job]:
    NONRIGID = ehrhard.Verdict.NONRIGID

    def call(p):
        return ehrhard.rigidity_verdict(p), ehrhard.exhaustive_search(p)

    def check(reports) -> Outcome:
        theorem, search = reports
        ok = theorem.verdict is search.verdict
        if theorem.verdict is NONRIGID:
            ok = ok and theorem.certificate.separating
        if search.verdict is NONRIGID:
            ok = ok and search.certificate.separating
        return Outcome(ok, partitions=search.partitions_checked)

    return [
        Job(f"profile-{k}", (lambda p=p: call(p)), check) for k, p in enumerate(profiles)
    ]


def _grid_jobs(ehrhard, entries) -> list[Job]:
    def check(result) -> Outcome:
        return Outcome(result.passed, partitions=result.report.partitions_checked)

    return [
        Job(f"{name}-h{h}", (lambda n=name, r=h: ehrhard.run_entry(n, r)), check)
        for name, h in entries
    ]


def _cli_jobs(ehrhard, files: dict, outdir: Path) -> list[Job]:
    expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    jobs = []
    for name, path in files.items():
        for command in CLI_COMMANDS:
            out = outdir / f"{name}.{command}.out"
            argv = [command, "--in", str(path), "--out", str(out)]
            want = expected[name].get(command)

            def call(argv=argv):
                return ehrhard.cli.main(argv)

            def check(code, out=out, command=command, want=want) -> Outcome:
                if code != 0:
                    return Outcome(False)
                size = out.stat().st_size
                if command == "render":
                    root = ET.parse(out).getroot()
                    return Outcome(root.tag.rsplit("}", 1)[-1] == "svg", bytes_svg=size)
                doc = json.loads(out.read_text(encoding="utf-8"))
                if command == "rigidity":
                    got = summarize_rigidity(doc)
                    parts = doc.get("partitions_checked", 0)
                else:
                    got = summarize_connectedness(doc)
                    parts = 0
                return Outcome(
                    want is not None and matches(want, got), partitions=parts, bytes_json=size
                )

            jobs.append(Job(f"{command}:{name}", call, check))
    return jobs


class Workload:
    """Generated inputs of one workload and the operations of one pass."""

    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        import ehrhard
        import ehrhard.cli
        import ehrhard.jsonio

        self.workdir = workdir
        rng = random.Random(seed)
        if name == "suite-1d":
            profiles = [random_profile_1d(ehrhard, rng) for _ in range(SUITE_POOL[size])]
            self.jobs = _suite_jobs(ehrhard, profiles)
        elif name == "grid-2d":
            entries = list(GRID_JOBS[size])
            rng.shuffle(entries)
            self.jobs = _grid_jobs(ehrhard, entries)
        elif name == "cli-report":
            workdir.mkdir(parents=True, exist_ok=True)
            files = {}
            for key, p in cli_inputs(ehrhard, CLI_RESOLUTION[size]).items():
                files[key] = workdir / f"{key}.json"
                files[key].write_text(
                    json.dumps(ehrhard.jsonio.profile_to_json(p)), encoding="utf-8"
                )
            self.jobs = _cli_jobs(ehrhard, files, workdir)
            rng.shuffle(self.jobs)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
