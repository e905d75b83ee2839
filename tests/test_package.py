"""The package's public names: each module lists the names it defines
once, in its ``__all__``, and the package exports their sorted union."""

import importlib
from pathlib import Path

import ehrhard

MODULES = (
    "catalog",
    "columnar",
    "connectedness",
    "errors",
    "gauss",
    "grids",
    "intervals",
    "profiles",
    "rigidity",
)


def test_each_module_defines_the_names_it_lists():
    for name in MODULES:
        module = importlib.import_module(f"ehrhard.{name}")
        for public in module.__all__:
            assert getattr(module, public).__module__ == module.__name__, public


def test_package_exports_the_sorted_union():
    union = [public for name in MODULES for public in importlib.import_module(f"ehrhard.{name}").__all__]
    assert len(set(union)) == len(union) == 83
    assert ehrhard.__all__ == sorted(union)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from ehrhard import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ehrhard.__all__


def test_one_lazy_attribute_hook():
    """Every type whose fields are priced on first read shares the one
    ``__getattr__`` of ``intervals._Lazy``."""
    src = Path(ehrhard.__file__).parent
    hooks = [
        f.name
        for f in sorted(src.glob("*.py"))
        for line in f.read_text(encoding="utf-8").splitlines()
        if "def __getattr__" in line
    ]
    assert hooks == ["intervals.py"]
