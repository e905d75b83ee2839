"""JSON encodings for grids, interval sets, profiles, columnar sets, reports.

JSON has no infinities, so the sentinels ``"inf"`` and ``"-inf"`` stand in
for the infinite endpoints wherever a number is expected. Facets encode as
``[axis, line, lateral]``; on 1-D bases the shorthand ``[line]`` is
accepted on input. Cell values and sections nest by cell index: a flat
list for 1-D bases, a list of rows (first axis index outermost) for 2-D.

Reports (verdicts, certificates, scenes, perimeter breakdowns) are
output only and share one rule, :func:`to_json`: a dataclass becomes an
object of its fields, with fields that are ``None`` or private (a leading
underscore) omitted; every float is a number or an inf sentinel; tuples
and lists become lists; enums become their values; facets and columnar
sets use the encodings above.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from typing import Any, Callable

from .columnar import ColumnarSet
from .errors import FormatError
from .grids import Facet, Grid
from .intervals import IntervalSet
from .profiles import Profile, SingularAnnotation

INF = math.inf


def encode_number(x: float) -> Any:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return x


def decode_number(x: Any) -> float:
    if x == "inf":
        return INF
    if x == "-inf":
        return -INF
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise FormatError(f"expected a number or inf sentinel, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:  # an integer beyond the float range
        raise FormatError(f"integer of {x.bit_length()} bits is out of float range") from exc


# ----------------------------------------------------------------------
# interval sets


def interval_set_to_json(s: IntervalSet) -> list[list[Any]]:
    return [[encode_number(lo), encode_number(hi)] for lo, hi in s.to_pairs()]


def interval_set_from_json(data: Any) -> IntervalSet:
    if not isinstance(data, list):
        raise FormatError("interval set must be a list of [lo, hi] pairs")
    pairs = []
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError(f"bad interval {item!r}, expected [lo, hi]")
        pairs.append((decode_number(item[0]), decode_number(item[1])))
    return IntervalSet.from_pairs(pairs)


# ----------------------------------------------------------------------
# grids


def grid_to_json(g: Grid) -> dict[str, Any]:
    return {
        "base_dim": g.base_dim,
        "breakpoints": [[encode_number(b) for b in axis] for axis in g.axes],
    }


def grid_from_json(data: Any) -> Grid:
    if not isinstance(data, dict) or "breakpoints" not in data:
        raise FormatError("grid must be an object with a 'breakpoints' list")
    bps = data["breakpoints"]
    if not isinstance(bps, list) or not bps:
        raise FormatError("'breakpoints' must be a non-empty list of axes")
    axes = []
    for axis in bps:
        if not isinstance(axis, list):
            raise FormatError("each axis must be a list of breakpoints")
        axes.append([decode_number(b) for b in axis])
    if "base_dim" in data and data["base_dim"] != len(axes):
        raise FormatError("base_dim does not match the number of axes")
    return Grid(*axes)


# ----------------------------------------------------------------------
# facets


def facet_to_json(f: Facet) -> list[int]:
    return [f.axis, f.line, f.lateral]


def facet_from_json(data: Any, base_dim: int) -> Facet:
    if not isinstance(data, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in data
    ):
        raise FormatError(f"bad facet {data!r}")
    if len(data) == 1 and base_dim == 1:
        return Facet(0, data[0], 0)
    if len(data) == 3:
        return Facet(data[0], data[1], data[2])
    raise FormatError(f"bad facet {data!r}, expected [axis, line, lateral]")


# ----------------------------------------------------------------------
# profiles


def _nest(grid: Grid, flat: dict) -> Any:
    if grid.base_dim == 1:
        return [flat[(i,)] for i in range(grid.shape[0])]
    nx, ny = grid.shape
    return [[flat[(i, j)] for j in range(ny)] for i in range(nx)]


def _unnest(grid: Grid, data: Any, what: str) -> dict:
    out = {}
    try:
        if grid.base_dim == 1:
            (n,) = grid.shape
            if len(data) != n:
                raise FormatError(f"{what}: expected {n} entries, got {len(data)}")
            for i in range(n):
                out[(i,)] = data[i]
        else:
            nx, ny = grid.shape
            if len(data) != nx:
                raise FormatError(f"{what}: expected {nx} rows, got {len(data)}")
            for i in range(nx):
                if len(data[i]) != ny:
                    raise FormatError(f"{what}: row {i} has {len(data[i])} entries, expected {ny}")
                for j in range(ny):
                    out[(i, j)] = data[i][j]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"{what}: malformed nesting") from exc
    return out


def profile_to_json(p: Profile) -> dict[str, Any]:
    doc = {
        "base_dim": p.grid.base_dim,
        "breakpoints": [[encode_number(b) for b in axis] for axis in p.grid.axes],
        "values": _nest(p.grid, p.values),
    }
    if p.annotations:
        doc["annotations"] = [
            {"facet": facet_to_json(a.facet), "wedge": a.wedge, "vee": a.vee}
            for a in p.annotations
        ]
    return doc


def profile_from_json(data: Any) -> Profile:
    if not isinstance(data, dict):
        raise FormatError("profile must be a JSON object")
    grid = grid_from_json(data)
    raw = _unnest(grid, data.get("values"), "values")
    values = {cid: decode_number(v) for cid, v in raw.items()}
    items = data.get("annotations", [])
    if not isinstance(items, list):
        raise FormatError("'annotations' must be a list")
    annotations = []
    for item in items:
        if not isinstance(item, dict) or "facet" not in item:
            raise FormatError(f"bad annotation {item!r}")
        annotations.append(
            SingularAnnotation(
                facet=facet_from_json(item["facet"], grid.base_dim),
                wedge=decode_number(item.get("wedge")),
                vee=decode_number(item.get("vee")),
            )
        )
    return Profile(grid, values, annotations)


# ----------------------------------------------------------------------
# columnar sets


def columnar_to_json(e: ColumnarSet) -> dict[str, Any]:
    sections = {cid: interval_set_to_json(e.section(cid)) for cid in e.grid.cells()}
    return {"grid": grid_to_json(e.grid), "sections": _nest(e.grid, sections)}


def columnar_from_json(data: Any) -> ColumnarSet:
    if not isinstance(data, dict) or "grid" not in data:
        raise FormatError("columnar set must be an object with 'grid' and 'sections'")
    grid = grid_from_json(data["grid"])
    raw = _unnest(grid, data.get("sections"), "sections")
    sections = {cid: interval_set_from_json(s) for cid, s in raw.items()}
    return ColumnarSet(grid, sections)


# ----------------------------------------------------------------------
# report documents (output only)


def _same(x: Any) -> Any:
    return x


def _list(x: Any) -> list[Any]:
    return [to_json(v) for v in x]


def _enum(x: Enum) -> Any:
    return x.value


# exact type -> encoder; report classes are added on first use.
_ENCODERS: dict[type, Callable[[Any], Any]] = {
    float: encode_number,
    bool: _same,
    int: _same,
    str: _same,
    type(None): _same,
    tuple: _list,
    list: _list,
    Facet: facet_to_json,
    ColumnarSet: columnar_to_json,
}


def _encoder_for(cls: type) -> Callable[[Any], Any]:
    """Encoder for an enum or dataclass type (TypeError for anything else)."""
    if issubclass(cls, Enum):
        return _enum
    names = tuple(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))

    def encode(x: Any) -> dict[str, Any]:
        doc = {}
        for name in names:
            value = getattr(x, name)
            if value is not None:
                doc[name] = to_json(value)
        return doc

    return encode


def to_json(x: Any) -> Any:
    """Encode a report object (a dataclass tree) by the module's rule."""
    enc = _ENCODERS.get(type(x))
    if enc is None:
        enc = _ENCODERS[type(x)] = _encoder_for(type(x))
    return enc(x)
