"""The package's public names: each module lists the names it defines
once, in its ``__all__``, and the package exports their sorted union.
The catalog and its names are bound on first use, and an import loads
only the modules its callers need."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ehrhard

SRC = Path(ehrhard.__file__).resolve().parent.parent

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
    """Two hooks bind on first read: the package's ``__getattr__`` binds
    the catalog and its names, and every type whose fields are priced on
    first read shares the one ``__getattr__`` of ``intervals._Lazy``."""
    src = Path(ehrhard.__file__).parent
    hooks = [
        f.name
        for f in sorted(src.glob("*.py"))
        for line in f.read_text(encoding="utf-8").splitlines()
        if "def __getattr__" in line
    ]
    assert hooks == ["__init__.py", "intervals.py"]


def test_dir_holds_every_public_name():
    assert set(ehrhard.__all__) <= set(dir(ehrhard))


def test_missing_name_raises_the_usual_error():
    with pytest.raises(AttributeError, match="^module 'ehrhard' has no attribute 'no_such_name'$"):
        ehrhard.no_such_name


def test_catalog_is_the_imported_module():
    assert ehrhard.catalog is sys.modules["ehrhard.catalog"]


def loaded_by(code: str) -> set[str]:
    """The modules that running ``code`` in a fresh interpreter adds to
    ``sys.modules``; those ``site`` loaded before it do not count."""
    script = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "before = set(sys.modules)",
            code,
            "print(*sorted(set(sys.modules) - before))",
        ]
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True)
    return set(run.stdout.splitlines()[-1].split())


@pytest.fixture
def two_cell_profile(tmp_path):
    path = tmp_path / "profile.json"
    doc = {"base_dim": 1, "breakpoints": [["-inf", 0.0, "inf"]], "values": [0.3, 0.7]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestImportSet:
    """What an import or a command loads, each in a fresh interpreter."""

    OPTIONAL = {"ehrhard.catalog", "ehrhard.render", "csv", "fractions", "statistics"}

    def test_package_cli_and_jsonio_load_no_optional_layer(self):
        loaded = loaded_by("import ehrhard, ehrhard.cli, ehrhard.jsonio")
        assert {"ehrhard", "ehrhard.cli", "ehrhard.jsonio", "ehrhard.rigidity"} <= loaded
        assert not loaded & self.OPTIONAL

    def test_reading_a_catalog_name_loads_the_catalog(self):
        assert "ehrhard.catalog" in loaded_by("import ehrhard; ehrhard.run_entry")

    def test_rigidity_command_loads_neither_catalog_nor_render(self, two_cell_profile, tmp_path):
        argv = ["rigidity", "--in", str(two_cell_profile), "--out", str(tmp_path / "out.json")]
        loaded = loaded_by(f"import ehrhard.cli; assert ehrhard.cli.main({argv!r}) == 0")
        assert "ehrhard.cli" in loaded
        assert not loaded & {"ehrhard.catalog", "ehrhard.render"}
        assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["verdict"] == "Rigid"

    def test_render_command_loads_render(self, two_cell_profile, tmp_path):
        argv = ["render", "--in", str(two_cell_profile), "--out", str(tmp_path / "out.svg")]
        loaded = loaded_by(f"import ehrhard.cli; assert ehrhard.cli.main({argv!r}) == 0")
        assert "ehrhard.render" in loaded
        assert "ehrhard.catalog" not in loaded
