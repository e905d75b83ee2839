"""JSON encodings for grids, interval sets, profiles, columnar sets, reports.

JSON has no infinities, so the sentinels ``"inf"`` and ``"-inf"`` stand in
for the infinite endpoints wherever a number is expected. Facets encode as
``[axis, line, lateral]``; on 1-D bases the shorthand ``[line]`` is
accepted on input. Cell values and sections nest by cell index: a flat
list for 1-D bases, a list of rows (first axis index outermost) for 2-D.

Reports (verdicts, certificates, scenes, perimeter breakdowns) are
output only. One private writer, ``_dump(x, write)``, writes them by one
rule: a dataclass becomes an object of its fields, with fields that are
``None`` or private (a leading underscore) omitted and private fields
never read; every float is a number, an inf sentinel or ``NaN``; tuples
and lists become arrays; dicts with str keys keep their keys; enums
become their values; facets and columnar sets use the encodings above.
Any other type, or a dict key that is not a str, raises ``TypeError``.
The text is what ``json.dumps(doc, indent=2, sort_keys=True)`` gives for
the document ``doc`` that this rule makes of the report, but the writer
applies the rule while it writes, in one pass over the report objects,
and builds no document in between. Lazily priced report fields are
priced when the writer reads them.

The text leaves in chunks. Each writer appends its pieces (leaves, keys,
brackets, rows) to one buffer; after each item of an array or object,
and after each batch of rows, a buffer of ``_BATCH`` pieces is joined and
handed to ``write``. So a chunk holds at most ``_BATCH`` pieces and those
of one nesting path, whatever the size of the report, and no full copy
of a large text is made: the CLI writes each chunk to its output file as
it comes. ``_dumps(x)`` is the chunks joined.

Three large shapes have column writers, which fill ``%`` templates that
the generic writer makes from a stand-in whose leaves are slots, so the
bytes are the rule's. One cached maker, ``_template(standin, nl)``, writes
every row, id and section template from a hashable stand-in. The rows go
out through one array writer, ``_Rows``, a batch at a time; the outer
objects, a scene and a columnar set, are written as dicts whose arrays
are such rows. A scene is written from the profile it views, one template
per row type, and no row object is built (a scene whose rows were read
writes the same text); a ``SceneCell`` or ``SceneFacet`` written on its
own takes the generic path. A columnar set fills one template per
section, by its interval count, from its endpoint tuples
(``columnar._cell_ends``), and builds no ``columnar_to_json`` document. A
tuple of two or more cell ids, tuples of one length of exact ints (not
bool), fills one template per id; any other array is written item by
item. Each float column's texts are made at once (:func:`_float_texts`):
the text of each distinct float once, the rest looked up. ``0.0`` and
``-0.0`` are one key there but print differently, so a zero always takes
its own text.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from enum import Enum
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence

from .columnar import ColumnarSet, _cell_ends
from .connectedness import Scene, SceneCell, SceneFacet
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


def _nest(grid: Grid, items: list) -> list:
    """The row-major list ``items`` nested by cell index: itself on a 1-D
    base, its rows (first axis index outermost) on a 2-D one."""
    if grid.base_dim == 1:
        return items
    width = grid.shape[1]
    return [items[i : i + width] for i in range(0, len(items), width)]


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
    doc = grid_to_json(p.grid) | {"values": _nest(p.grid, list(p._values.values()))}
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
    sections = [interval_set_to_json(e.section(cid)) for cid in e.grid.cells()]
    return {"grid": grid_to_json(e.grid), "sections": _nest(e.grid, sections)}


def columnar_from_json(data: Any) -> ColumnarSet:
    if not isinstance(data, dict) or "grid" not in data:
        raise FormatError("columnar set must be an object with 'grid' and 'sections'")
    grid = grid_from_json(data["grid"])
    raw = _unnest(grid, data.get("sections"), "sections")
    sections = {cid: interval_set_from_json(s) for cid, s in raw.items()}
    return ColumnarSet(grid, sections)


# ----------------------------------------------------------------------
# report documents (output only): the writer
#
# A writer takes a value, ``nl`` (a newline and the indent of the value's
# own line) and ``out``, and appends the value's text to ``out`` in pieces:
# leaves, keys, brackets and the rows of the column writers.

# Pieces per chunk. After each item of an array or object, and each batch
# of rows, the pieces are passed on once there are this many, so a chunk
# holds at most this many and those of one nesting path, whatever the
# size of the report.
_BATCH = 512


class _Out(list):
    """The pieces written and not yet passed on to ``write``."""

    __slots__ = ("write",)

    def __init__(self, write: Callable[[str], Any]) -> None:
        super().__init__()
        self.write = write

    def spill(self) -> None:
        """Pass the pieces on as one chunk."""
        self.write("".join(self))
        self.clear()


def _dump(x: Any, write: Callable[[str], Any], nl: str = "\n") -> None:
    """Hand the text of the report ``x`` by the module's rule to ``write``
    in chunks, in one pass over ``x`` with no document built in between."""
    out = _Out(write)
    _write(x, nl, out)
    out.spill()


def _dumps(x: Any, nl: str = "\n") -> str:
    """The text of the report ``x``: the chunks of :func:`_dump` joined."""
    chunks: list[str] = []
    _dump(x, chunks.append, nl)
    return "".join(chunks)


def _write(x: Any, nl: str, out: _Out) -> None:
    leaf = _LEAVES.get(type(x))
    if leaf is None:
        _WRITERS[type(x)](x, nl, out)
    else:
        out.append(leaf(x))


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


# repr of a float -> its text where that is not the repr: the inf sentinels, NaN
_FLOAT_WORDS = {"nan": "NaN"} | {
    repr(x): encode_basestring_ascii(encode_number(x)) for x in (INF, -INF)
}


def _write_items(items: Iterable[tuple[str, Any]], nl: str, out: _Out, brackets: str) -> None:
    """The array or object, by ``brackets`` (``"[]"`` or ``"{}"``), of
    ``items``: pairs of a key's text and ``": "`` (empty in an array) and
    a value."""
    inner, leaves, writers, append = nl + "  ", _LEAVES, _WRITERS, out.append
    head = opening = brackets[0] + inner
    for key, v in items:
        leaf = leaves.get(type(v))  # as in :func:`_write`; a leaf joins its key's piece
        if leaf is None:
            append(head + key)
            writers[type(v)](v, inner, out)
        else:
            append(head + key + leaf(v))
        if len(out) >= _BATCH:
            out.spill()
        head = "," + inner
    append(brackets if head is opening else nl + brackets[1])


def _write_array(x: Any, nl: str, out: _Out) -> None:
    _write_items(zip(repeat(""), x), nl, out, "[]")


def _write_dict(x: dict, nl: str, out: _Out) -> None:
    for k in x:
        if type(k) is not str:
            raise TypeError(f"report keys must be str, not {type(k).__name__}")
    keyed = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(x.items())]
    _write_items(keyed, nl, out, "{}")


def _writer_for(cls: type) -> Callable[[Any, str, _Out], None]:
    """Writer for an enum or dataclass type (TypeError for anything else)."""
    if issubclass(cls, Enum):
        return lambda x, nl, out: _write(x.value, nl, out)
    names = sorted(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))
    keys = [(encode_basestring_ascii(n) + ": ", n) for n in names]

    def write(x: Any, nl: str, out: _Out) -> None:
        items = [(key, v) for key, name in keys if (v := getattr(x, name)) is not None]
        _write_items(items, nl, out, "{}")

    return write


class _Writers(dict):
    """Exact type -> writer; a missing type's writer is made by
    :func:`_writer_for` and stored on first use."""

    def __missing__(self, cls: type) -> Callable[[Any, str, _Out], None]:
        writer = self[cls] = _writer_for(cls)
        return writer


# ----------------------------------------------------------------------
# column writers: a ``%`` template per shape, indent and length, written by
# the generic writer from a stand-in whose leaves are slots


class _Slot(str):
    """A template slot, written as its own text."""


_D, _S = _Slot("%d"), _Slot("%s")
_BOOL_TEXT = {False: "false", True: "true"}


@functools.cache
def _template(standin: Any, nl: str) -> str:
    """The generic writer's text of the hashable stand-in ``standin``,
    whose slots are the template's."""
    return _dumps(standin, nl)


class _Rows:
    """An array whose items' texts, each after its separator ``"," +
    inner``, are ``rows(inner)`` at the items' indent ``inner``."""

    __slots__ = ("rows",)

    def __init__(self, rows: Callable[[str], Iterator[str]]) -> None:
        self.rows = rows


def _write_rows(x: _Rows, nl: str, out: _Out) -> None:
    """The array ``x``, its rows passed on ``_BATCH`` pieces at a time."""
    rows = x.rows(nl + "  ")
    first = next(rows, None)
    if first is None:
        out.append("[]")
        return
    out.append("[" + first[1:])
    while True:
        out.extend(islice(rows, max(_BATCH - len(out), 0)))
        if len(out) < _BATCH:  # the rows ran out
            break
        out.spill()
    out.append(nl + "]")


def _filled(standin: Any, leaves: Iterable[tuple]) -> _Rows:
    """The rows of the template of ``standin``, filled with each of ``leaves``."""
    return _Rows(lambda inner: map(("," + inner + _template(standin, inner)).__mod__, leaves))


def _float_texts(xs: Sequence[float]) -> list[str]:
    """:func:`_float_text` of every float of ``xs``: the text of each
    distinct float is made once and the rest are looked up. ``0.0`` and
    ``-0.0`` are one key, so a zero takes its own text; a NaN is found by
    identity."""
    distinct = list(set(xs))
    reprs = list(map(float.__repr__, distinct))
    words = dict(zip(distinct, map(_FLOAT_WORDS.get, reprs, reprs)))
    if 0.0 in words:
        return [words[x] if x else _float_text(x) for x in xs]
    return list(map(words.__getitem__, xs))


def _write_scene(x: Scene, nl: str, out: _Out) -> None:
    """The generic writer's text of the scene ``x``, with no row built: the
    templates are filled from the columns its rows are built from, each
    column's leaf texts made at once."""
    (ids, values, in_g, cell_gauss, lebesgue), facet_columns = x._columns()
    places, lo, hi, gauss, wedge, vee, blocked, annotated = facet_columns
    id_axes = list(zip(*ids))  # each cell's index along each axis
    flag, texts = _BOOL_TEXT.__getitem__, _float_texts
    # the leaves in the templates' order: by key, then along each key's value
    cells = zip(texts(cell_gauss), *id_axes, map(flag, in_g), texts(lebesgue), texts(values))
    facets = zip(
        map(flag, annotated),
        map(flag, blocked),
        *(map(axis.__getitem__, ends) for ends in (lo, hi) for axis in id_axes),
        *places,
        texts(gauss),
        texts(vee),
        texts(wedge),
    )
    slots = (_D,) * len(id_axes)  # a cell id stand-in
    cell = SceneCell(slots, _S, _S, _S, _S)
    facet = SceneFacet(Facet(_D, _D, _D), (slots, slots), _S, _S, _S, _S, _S)
    doc = {
        "base_dim": x.base_dim,
        "cells": _filled(cell, cells),
        "facets": _filled(facet, facets),
        "kind": x.kind,
    }
    _write_dict(doc, nl, out)


def _write_columnar(x: ColumnarSet, nl: str, out: _Out) -> None:
    """The generic writer's text of ``columnar_to_json(x)``, with no
    document built: every endpoint's text is made in one column, and each
    section fills the template of its interval count."""
    grid = x.grid
    ends = _cell_ends(x)[:-1]  # not the exterior's
    texts = iter(_float_texts(list(chain.from_iterable(ends))))

    def sections(counts: list[int]) -> _Rows:
        def rows(inner: str) -> Iterator[str]:
            # a section of n endpoints is n // 2 intervals
            templates = {
                n: "," + inner + _template(((_S, _S),) * (n // 2), inner) for n in set(counts)
            }
            # each section takes the next n texts of the one iterator
            fills = map(tuple, map(islice, repeat(texts), counts))
            return map(str.__mod__, map(templates.__getitem__, counts), fills)

        return _Rows(rows)

    counts = list(map(len, ends))
    nested = sections(counts) if grid.base_dim == 1 else list(map(sections, _nest(grid, counts)))
    _write_dict({"grid": grid_to_json(grid), "sections": nested}, nl, out)


def _write_tuple(x: tuple, nl: str, out: _Out) -> None:
    """:func:`_write_array`, with a cell id or facet (a tuple of at most three
    exact ints) filling one template, and a tuple of two or more cell ids
    (tuples of one length of exact ints) one template per id."""
    types = set(map(type, x))
    if types == {int} and len(x) <= 3:
        out.append(_template((_D,) * len(x), nl) % x)
        return
    if len(x) > 1 and types == {tuple}:
        lengths = set(map(len, x))
        if len(lengths) == 1 and set(map(type, chain.from_iterable(x))) == {int}:
            _write_rows(_filled((_D,) * len(x[0]), x), nl, out)
            return
    _write_array(x, nl, out)


# a leaf's type -> its text
_LEAVES: dict[type, Callable[[Any], str]] = {
    float: _float_text,
    bool: _BOOL_TEXT.__getitem__,
    int: int.__repr__,
    str: encode_basestring_ascii,
    type(None): lambda x: "null",
    _Slot: str,
}

_WRITERS = _Writers(
    {
        tuple: _write_tuple,
        list: _write_array,
        dict: _write_dict,
        Facet: lambda x, nl, out: _write_tuple(tuple(facet_to_json(x)), nl, out),
        ColumnarSet: _write_columnar,
        Scene: _write_scene,
        _Rows: _write_rows,
    }
)
