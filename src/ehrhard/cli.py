"""Command-line interface.

Exit codes: 0 on success, 1 for usage, input and output errors (bad
arguments, unknown names, malformed JSON, an output path that cannot be
written), 2 when a requested expectation fails (a catalog or sweep check,
or asking for a counterexample of a rigid profile). Set operations read
and write the JSON encodings from :mod:`ehrhard.jsonio`; ``-`` means
stdin or stdout. Every output, JSON, CSV or SVG and each file of
``catalog --out DIR``, goes through one routine, :func:`_write_out`: a
file takes a report's text chunk by chunk as the writer makes it, so a
large report is never held whole, and stdout takes the text whole once
it is complete. A command that fails while writing a file exits 1 and
leaves no regular file holding part of its text.

A command imports only what it runs: ``catalog`` and ``sweep`` import
:mod:`ehrhard.catalog`, ``render`` and ``catalog --out DIR`` import
:mod:`ehrhard.render` (the latter with :mod:`csv` and :mod:`pathlib`),
and ``--resolution`` imports :mod:`fractions`, each inside the code that
uses it, so that ``rigidity``, ``connectedness`` and the other commands
load none of them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import stat
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, TextIO

from . import __version__
from .columnar import ehrhard_symmetral, gauss_perimeter, steiner_symmetral
from .errors import EhrhardError, FormatError
from .gauss import phi, psi
from .jsonio import _dump, _dumps, columnar_from_json, profile_from_json
from .connectedness import essentially_disconnects
from .profiles import scene
from .rigidity import exhaustive_search, rigidity_verdict, rigidity_verdict_planar

if TYPE_CHECKING:
    from .catalog import CatalogCheck


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this CLI reserves 2 for
    failed expectations, so usage errors are remapped to status 1.

    argparse reads ``-0.5`` as a number but ``-1e-3``, ``-1/16`` or ``-inf`` as
    an option. No option here is ``-`` and a digit, or ``-`` and a letter but
    ``h``, so arguments that start like a number, and ``-inf``, ``-infinity``
    and ``-nan`` in any case, are values; a bad one fails its own check.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)\Z)", re.I)

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


def _write_out(path: str, data: Any) -> None:
    """Write ``data`` to ``path``: a str as it is, any other value as its
    report text. ``-`` is stdout, written once the text is complete, with a
    newline added if the text does not end in one. A file takes the text as
    :func:`jsonio._dump` hands it over, chunk by chunk. If writing fails
    part way (a lazily priced field of the report can raise), a regular
    file is removed, so that none is left holding part of a text; any other
    target, such as ``os.devnull`` or a pipe, keeps what it got."""
    if path == "-":
        text = data if isinstance(data, str) else _dumps(data)
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    regular = False
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            if isinstance(data, str):
                fh.write(data)
            else:
                _dump(data, fh.write)
    except BaseException:
        if regular:
            os.unlink(os.path.realpath(path))
        raise


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
    from fractions import Fraction

    try:
        exact = Fraction(text)
        h = float(exact)  # OverflowError past the float range
        if exact and not h:
            raise ValueError("underflows to 0")
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r}: {exc}") from exc
    return h


# The routines --method and --mode name, the first the default (--kind takes the --mode
# names); built per call, so a rebinding of this module's names (a tracer's) reaches them.
def _methods() -> dict[str, Callable[..., Any]]:
    return dict(theorem=rigidity_verdict, planar=rigidity_verdict_planar, search=exhaustive_search)


def _symmetrals() -> dict[str, Callable[..., Any]]:
    return dict(ehrhard=ehrhard_symmetral, steiner=steiner_symmetral)


def _build_parser() -> _Parser:
    top = _Parser(prog="ehrhard", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, run: Callable[[argparse.Namespace], int], help: str) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def choice(p: _Parser, flag: str, table: dict[str, Any]) -> None:
        p.add_argument(flag, choices=table, default=next(iter(table)))

    def files(p: _Parser) -> None:  # after the command's own options, as usage lists them
        p.add_argument("--in", dest="infile", default="-", metavar="FILE")
        p.add_argument("--out", default="-", metavar="FILE")

    command("phi", _cmd_phi, "upper Gaussian tail at t").add_argument("t", type=float)
    p = command("psi", _cmd_psi, "inverse of the upper Gaussian tail at p")
    p.add_argument("p", type=float)
    files(command("perimeter", _cmd_perimeter, "Gaussian perimeter breakdown of a columnar set"))

    p = command("symmetrize", _cmd_symmetrize, "column symmetral of a columnar set")
    choice(p, "--mode", _symmetrals())
    files(p)

    p = command("rigidity", _cmd_rigidity, "rigidity verdict of a profile")
    choice(p, "--method", _methods())
    files(p)

    p = command(
        "counterexample", _cmd_counterexample, "perimeter-tying competitor of a non-rigid profile"
    )
    files(p)

    p = command("connectedness", _cmd_connectedness, "scene graph and essential disconnection")
    choice(p, "--kind", _symmetrals())
    files(p)

    p = command("catalog", _cmd_catalog, "run a named example with its expectation checks")
    p.add_argument("name", nargs="?", help="entry name; omit to list entries")
    p.add_argument("--resolution", type=_resolution, default=None, metavar="H")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="DIR", help="write JSON, CSV, and SVG here")

    p = command("sweep", _cmd_sweep, "resolution sweep over a parameterized family")
    p.add_argument("--family", required=True)
    p.add_argument("--resolutions", type=_resolution, nargs="+", default=None, metavar="H")
    p.add_argument("--out", default="-", metavar="FILE")

    files(command("render", _cmd_render, "SVG picture of a profile or columnar set"))
    return top


def _cmd_phi(args: argparse.Namespace) -> int:
    print(repr(phi(args.t)))
    return 0


def _cmd_psi(args: argparse.Namespace) -> int:
    print(repr(psi(args.p)))
    return 0


def _cmd_perimeter(args: argparse.Namespace) -> int:
    e = columnar_from_json(_read_json(args.infile))
    _write_out(args.out, gauss_perimeter(e))
    return 0


def _cmd_symmetrize(args: argparse.Namespace) -> int:
    e = columnar_from_json(_read_json(args.infile))
    _write_out(args.out, _symmetrals()[args.mode](e))
    return 0


def _cmd_rigidity(args: argparse.Namespace) -> int:
    prof = profile_from_json(_read_json(args.infile))
    _write_out(args.out, _methods()[args.method](prof))
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    prof = profile_from_json(_read_json(args.infile))
    report = rigidity_verdict(prof)
    if report.rigid:
        print("profile is rigid: no perimeter-tying competitor exists", file=sys.stderr)
        return 2
    _write_out(args.out, report.counterexample)
    return 0


def _cmd_connectedness(args: argparse.Namespace) -> int:
    prof = profile_from_json(_read_json(args.infile))
    sc = scene(prof, kind=args.kind)
    disconnected, witness = essentially_disconnects(sc)
    _write_out(args.out, {"scene": sc, "disconnects": disconnected, "witness": witness})
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from .catalog import catalog_names, run_entry

    if args.name is None:
        for name in catalog_names():
            print(name)
        return 0
    result = run_entry(args.name, resolution=args.resolution, seed=args.seed)
    _print_checks(result.name, result.checks)
    if args.out is not None:
        import csv
        from pathlib import Path

        from .render import render_profile

        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": result.name,
            "passed": result.passed,
            "checks": result.checks,
            "extras": result.extras,
            "report": result.report,
        }
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["label", "ok", "detail"])
        writer.writerows([c.label, c.ok, c.detail] for c in result.checks)
        svg = render_profile(result.profile, result.report)
        for suffix, data in (("json", payload), ("csv", table.getvalue()), ("svg", svg)):
            _write_out(str(outdir / f"{result.name}.{suffix}"), data)
    return 0 if result.passed else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .catalog import sweep

    result = sweep(args.family, args.resolutions)
    _print_checks(f"sweep {result.family}", result.checks, sys.stderr)
    _write_out(args.out, result.csv())
    return 0 if result.passed else 2


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import render_columnar, render_profile

    data = _read_json(args.infile)
    if isinstance(data, dict) and "values" in data:
        svg = render_profile(profile_from_json(data))
    elif isinstance(data, dict) and "sections" in data:
        svg = render_columnar(columnar_from_json(data))
    else:
        raise FormatError("expected a profile ('values') or columnar set ('sections')")
    _write_out(args.out, svg)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (EhrhardError, OSError) as exc:
        print(f"ehrhard: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
