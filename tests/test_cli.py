import io
import json
import math
import os
import stat
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrhard.cli
import ehrhard.rigidity
from ehrhard import (
    DomainError,
    Facet,
    Grid,
    Profile,
    SingularAnnotation,
    gauss_perimeter,
    phi,
    psi,
    rigidity_verdict,
    scene,
)
from ehrhard.catalog import _mistico_profile
from ehrhard.cli import main
from ehrhard.jsonio import columnar_from_json, columnar_to_json, profile_to_json
from ehrhard.profiles import from_profile

INF = math.inf


def nonrigid_profile():
    return Profile(Grid((-INF, -1.0, 1.0, INF)), {(0,): 0.3, (1,): 1.0, (2,): 0.6})


def rigid_profile():
    return Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})


def write_profile(tmp_path, p, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(profile_to_json(p)), encoding="utf-8")
    return str(path)


def write_columnar(tmp_path, e, name="set.json"):
    path = tmp_path / name
    path.write_text(json.dumps(columnar_to_json(e)), encoding="utf-8")
    return str(path)


def annotated_2d_profile():
    """2x2 cells; blocked annotations on both axis-0 facets split the rows."""
    g = Grid((-INF, 0.0, INF), (-INF, 0.5, INF))
    values = {(0, 0): 0.3, (0, 1): 0.6, (1, 0): 0.4, (1, 1): 0.7}
    annotations = [
        SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5),
        SingularAnnotation(Facet(0, 1, 1), 0.0, 0.5),
    ]
    return Profile(g, values, annotations)


# Whole output documents for nonrigid_profile(): any change to the report
# JSON format, or to a number in it, shows up here.
CERTIFICATE_DOC = {
    "interface_facets": [],
    "minus_cells": [[0]],
    "minus_gauss": 0.15865525393145707,
    "plus_cells": [[2]],
    "plus_gauss": 0.15865525393145707,
    "unblocked_interface_measure": 0.0,
}
RIGIDITY_DOC = {
    "annotated": False,
    "certificate": CERTIFICATE_DOC,
    "counterexample": {
        "grid": {"base_dim": 1, "breakpoints": [["-inf", -1.0, 1.0, "inf"]]},
        "sections": [
            [["-inf", -0.5244005127080409]],
            [["-inf", "inf"]],
            [[-0.2533471031357998, "inf"]],
        ],
    },
    "method": "theorem",
    "notes": [],
    "partitions_checked": 0,
    "perimeter_check": {
        "candidate": 0.9591019767032827,
        "difference": 0.0,
        "symmetral": 0.9591019767032827,
    },
    "symdiff_check": {
        "vs_reflected": 0.12692420314516567,
        "vs_symmetral": 0.09519315235887425,
    },
    "verdict": "NonRigid",
}


def scene_cells_doc(middle_in_g):
    return [
        {"gauss": 0.15865525393145707, "id": [0], "in_g": True, "lebesgue": "inf", "value": 0.3},
        {"gauss": 0.6826894921370859, "id": [1], "in_g": middle_in_g, "lebesgue": 2.0, "value": 1.0},
        {"gauss": 0.15865525393145707, "id": [2], "in_g": True, "lebesgue": "inf", "value": 0.6},
    ]


CONNECTEDNESS_EHRHARD_DOC = {
    "disconnects": True,
    "scene": {"base_dim": 1, "cells": scene_cells_doc(False), "facets": [], "kind": "ehrhard"},
    "witness": CERTIFICATE_DOC,
}
CONNECTEDNESS_STEINER_DOC = {
    "disconnects": False,
    "scene": {
        "base_dim": 1,
        "cells": scene_cells_doc(True),
        "facets": [
            {
                "annotated": False,
                "blocked": False,
                "cells": [[0], [1]],
                "facet": [0, 1, 0],
                "gauss": 0.6065306597126334,
                "vee": 1.0,
                "wedge": 0.3,
            },
            {
                "annotated": False,
                "blocked": False,
                "cells": [[1], [2]],
                "facet": [0, 2, 0],
                "gauss": 0.6065306597126334,
                "vee": 1.0,
                "wedge": 0.6,
            },
        ],
        "kind": "steiner",
    },
    "witness": {"cells": [[0], [1], [2]], "tree_facets": [[0, 1, 0], [0, 2, 0]]},
}

# The rigidity document for annotated_2d_profile(): an annotated 2-D
# NonRigid report with every evidence field and no private one.
ANNOTATED_2D_RIGIDITY_DOC = {
    "annotated": True,
    "certificate": {
        "interface_facets": [[0, 1, 0], [0, 1, 1]],
        "minus_cells": [[0, 0], [0, 1]],
        "minus_gauss": 0.5,
        "plus_cells": [[1, 0], [1, 1]],
        "plus_gauss": 0.5,
        "unblocked_interface_measure": 0.0,
    },
    "counterexample": {
        "grid": {"base_dim": 2, "breakpoints": [["-inf", 0.0, "inf"], ["-inf", 0.5, "inf"]]},
        "sections": [
            [[["-inf", -0.5244005127080409]], [["-inf", 0.2533471031357998]]],
            [[[0.2533471031357998, "inf"]], [[-0.5244005127080407, "inf"]]],
        ],
    },
    "method": "theorem",
    "notes": [
        "annotated profile: the mirrored competitor ties the perimeter only "
        "asymptotically along refinements; the reported difference is for this grid"
    ],
    "partitions_checked": 0,
    "perimeter_check": {
        "candidate": 1.8847256986704175,
        "difference": 0.5999999999999999,
        "symmetral": 1.2847256986704176,
    },
    "symdiff_check": {"vs_reflected": 0.3691462461274014, "vs_symmetral": 0.33085375387259874},
    "verdict": "NonRigid",
}


class TestScalars:
    def test_phi(self, capsys):
        assert main(["phi", "1.0"]) == 0
        assert float(capsys.readouterr().out) == phi(1.0)

    def test_psi(self, capsys):
        assert main(["psi", "0.25"]) == 0
        assert float(capsys.readouterr().out) == psi(0.25)

    @pytest.mark.parametrize("t, want", [("-inf", "1.0"), ("-INFINITY", "1.0"), ("inf", "0.0")])
    def test_phi_infinite(self, capsys, t, want):
        # argparse alone would take "-inf" for an option and miss the argument
        assert main(["phi", t]) == 0
        assert capsys.readouterr().out == want + "\n"

    def test_phi_nan_is_input_error(self, capsys):
        assert main(["phi", "-NaN"]) == 1
        assert capsys.readouterr().err == "ehrhard: error: phi: NaN input\n"

    def test_psi_domain_error(self, capsys):
        assert main(["psi", "1.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["phi"])
        assert info.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0


class TestSetCommands:
    def test_perimeter(self, tmp_path, capsys):
        e = from_profile(nonrigid_profile())
        infile = write_columnar(tmp_path, e)
        assert main(["perimeter", "--in", infile]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_gauss"] == gauss_perimeter(e).total_gauss

    def test_symmetrize_modes(self, tmp_path, capsys):
        e = from_profile(rigid_profile())
        infile = write_columnar(tmp_path, e)
        for mode in ("ehrhard", "steiner"):
            assert main(["symmetrize", "--mode", mode, "--in", infile]) == 0
            out = json.loads(capsys.readouterr().out)
            columnar_from_json(out)

    def test_stdin_input(self, capsys, monkeypatch):
        e = from_profile(rigid_profile())
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(columnar_to_json(e))))
        assert main(["perimeter"]) == 0
        assert "total_gauss" in json.loads(capsys.readouterr().out)

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["perimeter", "--in", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["perimeter", "--in", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


def _profile_bytes(mutate=None):
    doc = profile_to_json(nonrigid_profile())
    if mutate is not None:
        mutate(doc)
    return json.dumps(doc).encode("utf-8")


BIG = 10**400


def _big_value(doc):
    doc["values"][0] = BIG


def _big_breakpoint(doc):
    doc["breakpoints"][0][1] = BIG


BAD_INPUTS = {
    "invalid-utf8": _profile_bytes()[:20] + b"\xff" + _profile_bytes()[20:],
    "big-int-value": _profile_bytes(_big_value),
    "big-int-breakpoint": _profile_bytes(_big_breakpoint),
    "deep-nesting": b"[" * 100_000,
}


class TestByteBoundary:
    """Malformed bytes end in a FormatError (exit 1), never a traceback."""

    @pytest.mark.parametrize("command", ["rigidity", "connectedness", "render"])
    @pytest.mark.parametrize("label", sorted(BAD_INPUTS))
    def test_input_error(self, tmp_path, capsys, command, label):
        path = tmp_path / "bad.json"
        path.write_bytes(BAD_INPUTS[label])
        assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ehrhard: error:") and "Traceback" not in err

    @settings(deadline=None, max_examples=60)
    @given(
        st.data(),
        st.sampled_from(["rigidity", "connectedness", "render"]),
    )
    def test_mutated_bytes_exit_cleanly(self, tmp_path_factory, data, command):
        raw = bytearray(_profile_bytes())
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(raw)))
            raw[at:at] = data.draw(
                st.one_of(
                    st.binary(min_size=1, max_size=3),
                    st.integers(-(10**500), 10**500).map(lambda n: str(n).encode()),
                )
            )
        path = tmp_path_factory.mktemp("fuzz") / "in.json"
        path.write_bytes(bytes(raw))
        assert main([command, "--in", str(path), "--out", str(path.with_suffix(".out"))]) in (0, 1)


class TestUnwritableOutput:
    """An output path that cannot be written is an error (exit 1), never a
    traceback: a file in a missing directory, or a catalog directory that
    is a file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["perimeter", "--in", "{model}"],
            ["symmetrize", "--in", "{model}"],
            ["rigidity", "--in", "{profile}"],
            ["counterexample", "--in", "{profile}"],
            ["connectedness", "--in", "{profile}"],
            ["render", "--in", "{profile}"],
            ["sweep", "--family", "unannotated"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_in_missing_directory(self, tmp_path, capsys, argv):
        paths = {
            "{profile}": write_profile(tmp_path, nonrigid_profile()),
            "{model}": write_columnar(tmp_path, from_profile(nonrigid_profile())),
        }
        argv = [paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "missing" / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err  # sweep prints its checks here first
        assert err.splitlines()[-1].startswith("ehrhard: error:") and "Traceback" not in err

    def test_catalog_out_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["catalog", "fig2-top", "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ehrhard: error:") and "Traceback" not in err


@pytest.fixture
def failing_evidence(monkeypatch):
    """Pricing a NonRigid report's perimeter check raises: the writer reads
    that field after the output is opened."""

    def fail(report):
        raise DomainError("perimeter check failed")

    monkeypatch.setitem(ehrhard.rigidity._EVIDENCE, "perimeter_check", fail)


def assert_one_error_line(err):
    assert err.startswith("ehrhard: error:") and len(err.splitlines()) == 1, err


class TestStreamedOutput:
    """A file takes a report's text chunk by chunk as the writer makes it,
    stdout takes it whole. A failure while writing exits 1 with one error
    line and leaves nothing partial: no stdout and no regular file."""

    def test_failure_leaves_no_partial_file(self, tmp_path, capsys, failing_evidence):
        infile = write_profile(tmp_path, nonrigid_profile())
        out = tmp_path / "report.json"
        assert main(["rigidity", "--in", infile, "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_error_line(capsys.readouterr().err)
        assert main(["rigidity", "--in", infile]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
        # a failure after several chunks reached the file removes it too
        late = {"a": scene(_mistico_profile(1 / 16)), "b": rigidity_verdict(nonrigid_profile())}
        with pytest.raises(DomainError):
            ehrhard.cli._write_out(str(out), late)
        assert not out.exists()

    def test_failure_leaves_a_device_in_place(
        self, tmp_path, capsys, monkeypatch, failing_evidence
    ):
        def refuse(path, *args, **kwargs):
            raise AssertionError(f"{path!r} removed or replaced")

        for name in ("unlink", "remove", "replace", "rename"):
            monkeypatch.setattr(os, name, refuse)
        infile = write_profile(tmp_path, nonrigid_profile())
        assert main(["rigidity", "--in", infile, "--out", os.devnull]) == 1
        assert_one_error_line(capsys.readouterr().err)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_peak_memory_near_the_file_size(self, tmp_path):
        """Writing a scene of many batches to a file holds no full copy of
        its text: the traced peak stays below 1.5 times the file's size."""
        infile = write_profile(tmp_path, _mistico_profile(1 / 32))
        out = tmp_path / "scene.json"
        tracemalloc.start()
        try:
            assert main(["connectedness", "--in", infile, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.stat().st_size, (peak, out.stat().st_size)


class TestRigidity:
    def test_verdict_to_file(self, tmp_path):
        infile = write_profile(tmp_path, nonrigid_profile())
        out = tmp_path / "report.json"
        assert main(["rigidity", "--in", infile, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["verdict"] == "NonRigid"
        assert doc["certificate"]["minus_cells"] == [[0]]

    def test_methods_agree(self, tmp_path, capsys):
        infile = write_profile(tmp_path, rigid_profile())
        verdicts = []
        for method in ("theorem", "planar", "search"):
            assert main(["rigidity", "--method", method, "--in", infile]) == 0
            verdicts.append(json.loads(capsys.readouterr().out)["verdict"])
        assert verdicts == ["Rigid", "Rigid", "Rigid"]

    def test_each_name_runs_its_routine(self, tmp_path, monkeypatch):
        # the commands look their routines up through the module's names at
        # call time, so a rebinding of those names (a tracer's) reaches them
        profile = write_profile(tmp_path, nonrigid_profile())
        model = write_columnar(tmp_path, from_profile(nonrigid_profile()))
        calls = []

        def spy(name):
            real = getattr(ehrhard.cli, name)

            def call(x):
                calls.append(name)
                return real(x)

            return call

        cases = [
            (["rigidity", "--in", profile], "rigidity_verdict"),
            (["rigidity", "--method", "theorem", "--in", profile], "rigidity_verdict"),
            (["rigidity", "--method", "planar", "--in", profile], "rigidity_verdict_planar"),
            (["rigidity", "--method", "search", "--in", profile], "exhaustive_search"),
            (["symmetrize", "--in", model], "ehrhard_symmetral"),
            (["symmetrize", "--mode", "ehrhard", "--in", model], "ehrhard_symmetral"),
            (["symmetrize", "--mode", "steiner", "--in", model], "steiner_symmetral"),
        ]
        for name in {routine for _, routine in cases}:
            monkeypatch.setattr(ehrhard.cli, name, spy(name))
        for argv, routine in cases:
            calls.clear()
            assert main(argv) == 0
            assert calls == [routine], argv

    def test_counterexample_of_nonrigid(self, tmp_path, capsys):
        infile = write_profile(tmp_path, nonrigid_profile())
        assert main(["counterexample", "--in", infile]) == 0
        e = columnar_from_json(json.loads(capsys.readouterr().out))
        assert not e.is_empty

    def test_counterexample_of_rigid_fails(self, tmp_path, capsys):
        infile = write_profile(tmp_path, rigid_profile())
        assert main(["counterexample", "--in", infile]) == 2
        assert "rigid" in capsys.readouterr().err

    def test_connectedness(self, tmp_path, capsys):
        infile = write_profile(tmp_path, nonrigid_profile())
        assert main(["connectedness", "--in", infile]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disconnects"] is True
        assert doc["witness"]["minus_cells"] == [[0]]
        assert main(["connectedness", "--kind", "steiner", "--in", infile]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disconnects"] is False

    def test_exact_documents(self, tmp_path, capsys):
        infile = write_profile(tmp_path, nonrigid_profile())
        for args, want in (
            (["rigidity"], RIGIDITY_DOC),
            (["connectedness"], CONNECTEDNESS_EHRHARD_DOC),
            (["connectedness", "--kind", "steiner"], CONNECTEDNESS_STEINER_DOC),
        ):
            assert main([*args, "--in", infile]) == 0
            assert json.loads(capsys.readouterr().out) == want

    def test_exact_annotated_2d_document(self, tmp_path, capsys):
        infile = write_profile(tmp_path, annotated_2d_profile())
        assert main(["rigidity", "--in", infile]) == 0
        assert json.loads(capsys.readouterr().out) == ANNOTATED_2D_RIGIDITY_DOC

    def test_lebesgue_sums_past_the_float_range(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "base_dim": 1,
                    "breakpoints": [[-1e308, -1.0, 1.0, 1e308]],
                    "values": [0.5, 0.0, 0.5],
                }
            ),
            encoding="utf-8",
        )
        for method in ("theorem", "search"):
            assert main(["rigidity", "--method", method, "--in", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == "NonRigid"
        assert main(["counterexample", "--in", str(path)]) == 0
        competitor = tmp_path / "competitor.json"
        competitor.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["perimeter", "--in", str(competitor)]) == 0
        assert json.loads(capsys.readouterr().out)["total_lebesgue"] == "inf"

    def test_tolerance_is_usage_error(self, tmp_path, capsys):
        infile = write_profile(tmp_path, nonrigid_profile())
        with pytest.raises(SystemExit) as info:
            main(["rigidity", "--tolerance", "0.5", "--in", infile])
        assert info.value.code == 1
        assert "--tolerance" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        infile = write_profile(tmp_path, nonrigid_profile())
        with pytest.raises(SystemExit) as info:
            main(["connectedness", "--kind", "bogus", "--in", infile])
        assert info.value.code == 1
        assert "--kind" in capsys.readouterr().err

    def test_malformed_profile_is_input_error(self, tmp_path, capsys):
        doc = profile_to_json(nonrigid_profile())
        for bad in (dict(doc, annotations=5), dict(doc, annotations=[{"facet": [True]}])):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad), encoding="utf-8")
            assert main(["rigidity", "--in", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("ehrhard: error:") and "Traceback" not in err


class TestCatalogCommands:
    def test_list_entries(self, capsys):
        assert main(["catalog"]) == 0
        names = capsys.readouterr().out.split()
        assert "fig2-top" in names and len(names) == 9

    def test_run_entry_with_artifacts(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        assert main(["catalog", "fig2-top", "--out", str(outdir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("[ok  ]") for line in lines)
        assert (outdir / "fig2-top.json").exists()
        assert (outdir / "fig2-top.csv").exists()
        assert (outdir / "fig2-top.svg").exists()
        doc = json.loads((outdir / "fig2-top.json").read_text(encoding="utf-8"))
        assert doc["passed"] is True

    def test_unknown_entry(self, capsys):
        assert main(["catalog", "nope"]) == 1
        assert "unknown catalog entry" in capsys.readouterr().err

    def test_fractional_resolution(self, capsys):
        assert main(["catalog", "mistico", "--resolution", "1/16"]) == 0
        capsys.readouterr()

    def test_zero_resolution(self, capsys):
        assert main(["catalog", "mistico", "--resolution", "0"]) == 1
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "mistico", "--resolution", "-1e-3"],
            ["catalog", "mistico", "--resolution", "-0.001"],
            ["catalog", "mistico", "--resolution", "-1/16"],
            ["sweep", "--family", "mistico", "--resolutions", "1/8", "-1e-3"],
            ["sweep", "--family", "mistico", "--resolutions", "-0.001"],
            ["sweep", "--family", "unannotated", "--resolutions", "1/2", "-1E-3"],
        ],
    )
    def test_negative_resolution(self, capsys, no_catalog_grid, no_sweep_build, argv):
        assert main(argv) == 1
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", ["1e-300", "1/100000"])
    def test_tiny_resolution(self, capsys, no_catalog_grid, resolution):
        assert main(["catalog", "mistico", "--resolution", resolution]) == 1
        assert "at most 256 are allowed" in capsys.readouterr().err
        assert main(["sweep", "--family", "mistico", "--resolutions", resolution]) == 1
        assert "at most 256 are allowed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "mistico", "--resolution", "1e400"],
            ["catalog", "mistico", "--resolution", "1e-400"],
            ["sweep", "--family", "mistico", "--resolutions", "1e400"],
            ["sweep", "--family", "koch", "--resolutions", "1e-400"],
            ["catalog", "mistico", "--resolution", "-inf"],
            ["sweep", "--family", "koch", "--resolutions", "-Infinity"],
        ],
    )
    def test_resolution_outside_float_range(self, capsys, no_catalog_grid, no_sweep_build, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "bad resolution" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, resolution",
        [
            ("unannotated", "1e-300"),
            ("unannotated", "1e-6"),
            ("unannotated", "2/257"),
            ("koch", "2.5"),
            ("koch", "-1"),
            ("koch", "7"),
        ],
    )
    def test_unbuildable_sweep(self, capsys, no_sweep_build, family, resolution):
        assert main(["sweep", "--family", family, "--resolutions", resolution]) == 1
        assert f"sweep family '{family}'" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", ["0", "-0.5"])
    def test_non_positive_sweep_step(self, capsys, no_sweep_build, resolution):
        assert main(["sweep", "--family", "unannotated", "--resolutions", "1/2", resolution]) == 1
        assert "sweep family 'unannotated'" in capsys.readouterr().err

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["sweep", "--family", "unannotated", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[ok  ] sweep unannotated" in captured.err
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "h,p_gamma_f,p_gamma_e,excess"
        assert len(lines) == 5

    def test_sweep_unknown_family(self, capsys):
        assert main(["sweep", "--family", "nope"]) == 1
        assert "error" in capsys.readouterr().err


class TestRender:
    def test_profile_input(self, tmp_path, capsys):
        infile = write_profile(tmp_path, nonrigid_profile())
        assert main(["render", "--in", infile]) == 0
        assert "<svg" in capsys.readouterr().out

    def test_columnar_input(self, tmp_path, capsys):
        infile = write_columnar(tmp_path, from_profile(rigid_profile()))
        assert main(["render", "--in", infile]) == 0
        assert "<svg" in capsys.readouterr().out

    def test_unrecognized_payload(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"x": 1}', encoding="utf-8")
        assert main(["render", "--in", str(path)]) == 1
        assert "expected a profile" in capsys.readouterr().err
