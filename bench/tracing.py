"""Per-layer measurement from outside the library.

Two independent instruments, both installed only by the traced run:

* ``Tracer`` records spans. It wraps a fixed list of public functions of
  the library's modules at every name they are bound to inside the
  package, which covers both the cross-module imports and the calls a
  module makes to its own functions. A span is ``[name, layer, parent,
  start, end]``; spans stay in memory until the run writes them out.
* ``count_calls`` runs a callable under ``cProfile`` and reads exact call
  counts of chosen functions. It is never mixed with timing: ``cProfile``
  slows every call and would skew the span times.

``phi``, the interval constructors and the ``Grid`` methods are called
hundreds of thousands of times per run, so they are counted, not spanned.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import sys
import time

# layer (module of ehrhard) -> functions that get a span at every call.
SPANNED = {
    "cli": ("main",),
    "catalog": ("run_entry",),
    "jsonio": (
        "profile_from_json",
        "columnar_from_json",
        "rigidity_report_to_json",
        "scene_to_json",
        "certificate_to_json",
        "spanning_to_json",
        "columnar_to_json",
        "breakdown_to_json",
    ),
    "render": ("render_profile", "render_columnar"),
    "rigidity": (
        "rigidity_verdict",
        "exhaustive_search",
        "build_counterexample",
        "check_pino",
        "check_gino",
        "verify_equality_case",
    ),
    "profiles": ("scene", "from_profile", "g_boundary_gauss"),
    "connectedness": (
        "essentially_disconnects",
        "certificate_for",
        "indecomposable",
        "complement_indecomposable",
        "decompose",
    ),
    "columnar": (
        "gauss_perimeter",
        "symdiff_volume",
        "reflect",
        "complement",
        "restrict",
        "halfline_classification",
    ),
}

# per-layer metric -> (module, qualified name) whose calls are counted.
COUNTED = {
    "gauss.phi_calls": ("gauss", "phi"),
    "gauss.psi_calls": ("gauss", "psi"),
    "intervals.interval_new": ("intervals", "Interval.__post_init__"),
    "intervals.set_new": ("intervals", "IntervalSet.__init__"),
    "grids.shape_calls": ("grids", "Grid.shape"),
    "grids.facet_cells_calls": ("grids", "Grid.facet_cells"),
    "grids.facet_gauss_calls": ("grids", "Grid.facet_gauss"),
    "grids.cell_gauss_calls": ("grids", "Grid.cell_gauss"),
    "profiles.scene_calls": ("profiles", "scene"),
    "columnar.perimeter_calls": ("columnar", "gauss_perimeter"),
}

EVIDENCE = {
    "rigidity.build_counterexample",
    "profiles.from_profile",
    "columnar.reflect",
    "columnar.gauss_perimeter",
    "columnar.symdiff_volume",
}
DECISIONS = {"rigidity.rigidity_verdict", "rigidity.exhaustive_search"}

# inclusive-time metric -> spans it sums (outermost occurrence only).
INCLUSIVE = {
    "rigidity.verdict_s": {"rigidity.rigidity_verdict"},
    "rigidity.search_s": {"rigidity.exhaustive_search"},
    "rigidity.pino_s": {"rigidity.check_pino"},
    "connectedness.decide_s": {"connectedness.essentially_disconnects"},
    "connectedness.decompose_s": {
        "connectedness.indecomposable",
        "connectedness.complement_indecomposable",
        "connectedness.decompose",
    },
    "profiles.scene_s": {"profiles.scene"},
    "columnar.perimeter_s": {"columnar.gauss_perimeter"},
    "columnar.symdiff_s": {"columnar.symdiff_volume"},
    "columnar.complement_s": {"columnar.complement"},
    "jsonio.decode_s": {"jsonio.profile_from_json", "jsonio.columnar_from_json"},
    "jsonio.encode_s": {
        f"jsonio.{n}" for n in SPANNED["jsonio"] if n.endswith("_to_json")
    },
    "render.svg_s": {"render.render_profile", "render.render_columnar"},
}

# the harness's own span around each operation.
BENCH_LAYER = "bench"
SELF_LAYERS = (BENCH_LAYER,) + tuple(SPANNED)


def _module(layer: str):
    return importlib.import_module(f"ehrhard.{layer}")


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "ehrhard" or name.startswith("ehrhard."))
    ]


class Tracer:
    """In-memory span recorder with the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str, layer: str, fn, *args):
        """Call ``fn(*args)`` inside a span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        rec = [name, layer, stack[-1] if stack else -1, 0.0, 0.0]
        stack.append(len(spans))
        spans.append(rec)
        rec[3] = clock()
        try:
            return fn(*args)
        finally:
            rec[4] = clock()
            stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kwargs:
                return span(name, layer, functools.partial(fn, **kwargs), *args)
            return span(name, layer, fn, *args)

        return traced

    def install(self) -> None:
        """Wrap every SPANNED function wherever the package binds it."""
        modules = _package_modules()
        for layer, names in SPANNED.items():
            home = _module(layer)
            for n in names:
                fn = getattr(home, n, None)
                if fn is None:
                    continue
                wrapped = self._wrap(fn, f"{layer}.{n}", layer)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._patches.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-pass layer times from a list of spans covering ``passes`` passes."""
    n = len(spans)
    child = [0.0] * n
    for name, layer, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start

    def outermost(k: int, names: set) -> bool:
        parent = spans[k][2]
        while parent >= 0:
            if spans[parent][0] in names:
                return False
            parent = spans[parent][2]
        return True

    out: dict[str, float] = {}
    for metric, names in INCLUSIVE.items():
        out[metric] = sum(
            s[4] - s[3] for k, s in enumerate(spans) if s[0] in names and outermost(k, names)
        )
    out["rigidity.evidence_s"] = sum(
        s[4] - s[3]
        for s in spans
        if s[0] in EVIDENCE and s[2] >= 0 and spans[s[2]][0] in DECISIONS
    )
    selfs = dict.fromkeys(SELF_LAYERS, 0.0)
    for k, s in enumerate(spans):
        selfs[s[1]] += (s[4] - s[3]) - child[k]
    for layer, value in selfs.items():
        out[f"{layer}.self_s"] = value
    return {k: v / passes for k, v in out.items()}


def _counted_codes() -> dict:
    """Code object of each COUNTED function; a name that is gone (or is
    no longer a Python function) maps to None and counts 0."""
    codes = {}
    for metric, (layer, qualname) in COUNTED.items():
        obj = _module(layer)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        codes[metric] = getattr(getattr(obj, "fget", obj), "__code__", None)
    return codes


def count_calls(fn) -> tuple[object, dict[str, int]]:
    """Run ``fn()`` under cProfile; return its result and the COUNTED counts."""
    prof = cProfile.Profile(builtins=False)
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    by_code = {e.code: e.callcount for e in prof.getstats()}
    return result, {m: by_code.get(code, 0) for m, code in _counted_codes().items()}
