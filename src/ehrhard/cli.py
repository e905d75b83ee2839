"""Command-line interface.

Exit codes: 0 on success, 1 for usage and input errors (bad arguments,
unknown names, malformed JSON), 2 when a requested expectation fails (a
catalog or sweep check, or asking for a counterexample of a rigid
profile). Set operations read and write the JSON encodings from
:mod:`ehrhard.jsonio`; ``-`` means stdin or stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence, TextIO

from . import __version__
from .catalog import CatalogCheck, catalog_names, run_entry, sweep
from .columnar import ehrhard_symmetral, gauss_perimeter, steiner_symmetral
from .errors import EhrhardError, FormatError
from .gauss import phi, psi
from .jsonio import columnar_from_json, columnar_to_json, profile_from_json, to_json
from .connectedness import essentially_disconnects
from .profiles import scene
from .render import render_columnar, render_profile
from .rigidity import exhaustive_search, rigidity_verdict, rigidity_verdict_planar


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this CLI reserves 2 for
    failed expectations, so usage errors are remapped to status 1.

    argparse takes only plain decimals such as ``-0.5`` for negative
    numbers and anything else after a ``-`` (``-1e-3``, ``-1/16``) for an
    option. No option here starts with a digit, so every such argument
    is read as a value, and a bad one is refused by its own check.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # bad syntax, bytes that are not UTF-8, an integer over the parser's
        # digit limit, or nesting deeper than the parser can recurse
        raise FormatError(f"invalid JSON in {path!r}: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read {path!r}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, data: Any) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True))


def _print_checks(
    subject: str, checks: Sequence[CatalogCheck], file: Optional[TextIO] = None
) -> None:
    """One ``[ok  ]`` or ``[FAIL]`` line per check (stdout unless ``file``)."""
    for c in checks:
        line = f"[{'ok  ' if c.ok else 'FAIL'}] {subject}: {c.label}"
        if c.detail:
            line += f" ({c.detail})"
        print(line, file=file)


def _resolution(text: str) -> float:
    try:
        exact = Fraction(text)
        h = float(exact)  # OverflowError past the float range
        if exact and not h:
            raise ValueError("underflows to 0")
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r}: {exc}") from exc
    return h


def _build_parser() -> _Parser:
    top = _Parser(prog="ehrhard", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("phi", help="upper Gaussian tail at t")
    p.add_argument("t", type=float)

    p = sub.add_parser("psi", help="inverse of the upper Gaussian tail at p")
    p.add_argument("p", type=float)

    p = sub.add_parser("perimeter", help="Gaussian perimeter breakdown of a columnar set")
    p.add_argument("--in", dest="infile", default="-", metavar="FILE")
    p.add_argument("--out", default="-", metavar="FILE")

    p = sub.add_parser("symmetrize", help="column symmetral of a columnar set")
    p.add_argument("--mode", choices=("ehrhard", "steiner"), default="ehrhard")
    p.add_argument("--in", dest="infile", default="-", metavar="FILE")
    p.add_argument("--out", default="-", metavar="FILE")

    p = sub.add_parser("rigidity", help="rigidity verdict of a profile")
    p.add_argument("--method", choices=("theorem", "planar", "search"), default="theorem")
    p.add_argument("--in", dest="infile", default="-", metavar="FILE")
    p.add_argument("--out", default="-", metavar="FILE")

    p = sub.add_parser("counterexample", help="perimeter-tying competitor of a non-rigid profile")
    p.add_argument("--in", dest="infile", default="-", metavar="FILE")
    p.add_argument("--out", default="-", metavar="FILE")

    p = sub.add_parser("connectedness", help="scene graph and essential disconnection")
    p.add_argument("--kind", choices=("ehrhard", "steiner"), default="ehrhard")
    p.add_argument("--in", dest="infile", default="-", metavar="FILE")
    p.add_argument("--out", default="-", metavar="FILE")

    p = sub.add_parser("catalog", help="run a named example with its expectation checks")
    p.add_argument("name", nargs="?", help="entry name; omit to list entries")
    p.add_argument("--resolution", type=_resolution, default=None, metavar="H")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="DIR", help="write JSON, CSV, and SVG here")

    p = sub.add_parser("sweep", help="resolution sweep over a parameterized family")
    p.add_argument("--family", required=True)
    p.add_argument("--resolutions", type=_resolution, nargs="+", default=None, metavar="H")
    p.add_argument("--out", default="-", metavar="FILE")

    p = sub.add_parser("render", help="SVG picture of a profile or columnar set")
    p.add_argument("--in", dest="infile", default="-", metavar="FILE")
    p.add_argument("--out", default="-", metavar="FILE")
    return top


def _cmd_rigidity(args: argparse.Namespace) -> int:
    prof = profile_from_json(_read_json(args.infile))
    if args.method == "planar":
        report = rigidity_verdict_planar(prof)
    elif args.method == "search":
        report = exhaustive_search(prof)
    else:
        report = rigidity_verdict(prof)
    _write_json(args.out, to_json(report))
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    prof = profile_from_json(_read_json(args.infile))
    report = rigidity_verdict(prof)
    if report.rigid:
        print("profile is rigid: no perimeter-tying competitor exists", file=sys.stderr)
        return 2
    _write_json(args.out, columnar_to_json(report.counterexample))
    return 0


def _cmd_connectedness(args: argparse.Namespace) -> int:
    prof = profile_from_json(_read_json(args.infile))
    sc = scene(prof, kind=args.kind)
    disconnected, witness = essentially_disconnects(sc)
    payload = {
        "scene": to_json(sc),
        "disconnects": disconnected,
        "witness": to_json(witness),
    }
    _write_json(args.out, payload)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.name is None:
        for name in catalog_names():
            print(name)
        return 0
    result = run_entry(args.name, resolution=args.resolution, seed=args.seed)
    _print_checks(result.name, result.checks)
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": result.name,
            "passed": result.passed,
            "checks": to_json(result.checks),
            "extras": result.extras,
            "report": to_json(result.report),
        }
        _write_json(str(outdir / f"{result.name}.json"), payload)
        with open(outdir / f"{result.name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "ok", "detail"])
            for c in result.checks:
                writer.writerow([c.label, c.ok, c.detail])
        (outdir / f"{result.name}.svg").write_text(
            render_profile(result.profile, result.report), encoding="utf-8"
        )
    return 0 if result.passed else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    result = sweep(args.family, args.resolutions)
    _print_checks(f"sweep {result.family}", result.checks, sys.stderr)
    _write_text(args.out, result.csv())
    return 0 if result.passed else 2


def _cmd_render(args: argparse.Namespace) -> int:
    data = _read_json(args.infile)
    if isinstance(data, dict) and "values" in data:
        svg = render_profile(profile_from_json(data))
    elif isinstance(data, dict) and "sections" in data:
        svg = render_columnar(columnar_from_json(data))
    else:
        raise FormatError("expected a profile ('values') or columnar set ('sections')")
    _write_text(args.out, svg)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "phi":
            print(repr(phi(args.t)))
            return 0
        if args.command == "psi":
            print(repr(psi(args.p)))
            return 0
        if args.command == "perimeter":
            e = columnar_from_json(_read_json(args.infile))
            _write_json(args.out, to_json(gauss_perimeter(e)))
            return 0
        if args.command == "symmetrize":
            e = columnar_from_json(_read_json(args.infile))
            out = ehrhard_symmetral(e) if args.mode == "ehrhard" else steiner_symmetral(e)
            _write_json(args.out, columnar_to_json(out))
            return 0
        if args.command == "rigidity":
            return _cmd_rigidity(args)
        if args.command == "counterexample":
            return _cmd_counterexample(args)
        if args.command == "connectedness":
            return _cmd_connectedness(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "render":
            return _cmd_render(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except EhrhardError as exc:
        print(f"ehrhard: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
