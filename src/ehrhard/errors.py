"""Exception types shared across the package."""

__all__ = [
    "CatalogError",
    "DomainError",
    "EhrhardError",
    "FormatError",
    "GridError",
    "PartitionError",
    "ProfileError",
    "SearchBoundError",
]


class EhrhardError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EhrhardError, ValueError):
    """A scalar or set argument lies outside the mathematical domain.

    Raised for NaN inputs, probabilities outside [0, 1], reversed interval
    endpoints, gap arguments with beta < alpha, and barycenters of null sets.
    """


class GridError(EhrhardError, ValueError):
    """Malformed grid data: unsorted breakpoints, bad dimension, unknown cells."""


class ProfileError(EhrhardError, ValueError):
    """Malformed profile data: values outside [0, 1], missing cells, bad annotations."""


class PartitionError(EhrhardError, ValueError):
    """A cell partition does not split the intended cells into two disjoint parts."""


class SearchBoundError(EhrhardError, ValueError):
    """Exhaustive enumeration was refused because the instance is too large."""


class FormatError(EhrhardError, ValueError):
    """A JSON document does not match the expected encoding."""


class CatalogError(EhrhardError, ValueError):
    """Unknown catalog entry or sweep family, or an incompatible resolution."""
