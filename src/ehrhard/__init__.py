"""Gaussian column symmetrization: perimeters, rigidity, and certificates.

The package models subsets of the plane (or of 3-space over a planar base)
as columnar sets: a grid of base cells, each carrying a one-dimensional
section. It computes Gaussian and Lebesgue perimeters, performs Ehrhard
and Steiner column symmetrization, and decides whether a symmetrized set
is rigid (the unique perimeter minimizer among sets with its column
masses) by analyzing essential connectedness of the cells where the
column mass is strictly between 0 and 1. Non-rigid instances come with an
explicit mirrored competitor and a verified equality case; rigid ones
with a connectivity certificate. A catalog of worked examples and a small
CLI sit on top.

Each module below lists its public names once, in its own ``__all__``;
the package exports their union. The catalog is imported and its names
are bound on first use, through the module ``__getattr__``.
"""

from . import columnar, connectedness, errors, gauss, grids, intervals, profiles, rigidity
from .columnar import *
from .connectedness import *
from .errors import *
from .gauss import *
from .grids import *
from .intervals import *
from .profiles import *
from .rigidity import *

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """Bind ``catalog``, its public names and ``__all__`` on the first read
    of a name the package does not hold yet, so that a caller that never
    asks for a worked example does not import the catalog."""
    names = globals()
    if "__all__" not in names:
        import importlib  # ``from . import catalog`` would come back here through hasattr

        catalog = importlib.import_module(f"{__name__}.catalog")
        names.update((public, getattr(catalog, public)) for public in catalog.__all__)
        names["__all__"] = sorted(
            public
            for module in (
                catalog, columnar, connectedness, errors, gauss, grids, intervals, profiles, rigidity
            )
            for public in module.__all__
        )
    if name in names:
        return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__getattr__("__all__")))
