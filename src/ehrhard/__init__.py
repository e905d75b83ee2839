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
the package exports their union.
"""

from . import catalog, columnar, connectedness, errors, gauss, grids, intervals, profiles, rigidity
from .catalog import *
from .columnar import *
from .connectedness import *
from .errors import *
from .gauss import *
from .grids import *
from .intervals import *
from .profiles import *
from .rigidity import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (
        catalog, columnar, connectedness, errors, gauss, grids, intervals, profiles, rigidity
    )
    for name in module.__all__
)
