import pytest

import ehrhard.catalog
from ehrhard import CatalogError, Verdict, gamma1
from ehrhard.catalog import (
    _MAX_KOCH_ITERATIONS,
    _MAX_STEPS,
    _step_count,
    catalog_names,
    koch_snowflake,
    run_entry,
    sweep,
)
from ehrhard.intervals import IntervalSet
from ehrhard.render import render_columnar, render_profile

EXPECTED_VERDICTS = {
    "fig2-top": Verdict.NONRIGID,
    "fig2-bottom": Verdict.NONRIGID,
    "fig3-01": Verdict.RIGID,
    "spikes": Verdict.RIGID,
    "maria3": Verdict.RIGID,
    "mistico": Verdict.NONRIGID,
    "mistico-hyperbola": Verdict.NONRIGID,
    "gperfinito": Verdict.NONRIGID,
    "koch": Verdict.NONRIGID,
}

# entries that take a resolution, and the grid step they use without one
DEFAULT_RESOLUTIONS = {"fig3-01": 0.25, "mistico": 0.125, "mistico-hyperbola": 0.125, "koch": 0.125}


def failing(result):
    return [f"{c.label}: {c.detail}" for c in result.checks if not c.ok]


class TestEntries:
    def test_names(self):
        assert catalog_names() == sorted(EXPECTED_VERDICTS)

    def test_unknown_entry(self):
        with pytest.raises(CatalogError):
            run_entry("nope")

    def test_incompatible_resolution(self):
        with pytest.raises(CatalogError):
            run_entry("mistico", resolution=0.3)
        with pytest.raises(CatalogError):
            run_entry("gperfinito", resolution=0.125)

    @pytest.mark.parametrize("resolution", [0.0, -0.125, float("nan"), float("inf")])
    def test_degenerate_resolution(self, resolution):
        message = "does not tile" if resolution > 0.0 else "must be positive"
        with pytest.raises(CatalogError, match=message):
            run_entry("mistico", resolution=resolution)

    @pytest.mark.parametrize("resolution", [1e-300, 1 / 100000, 5e-324, 2 / 258])
    def test_tiny_resolution_builds_no_grid(self, resolution, no_catalog_grid):
        for name in DEFAULT_RESOLUTIONS:
            with pytest.raises(CatalogError, match="at most 256 are allowed"):
                run_entry(name, resolution=resolution)
        with pytest.raises(CatalogError, match="at most 256 are allowed"):
            sweep("mistico", [resolution])

    def test_step_cap(self):
        assert _MAX_STEPS == 256
        assert _step_count("mistico", 2.0, 2 / 256) == 256
        assert _step_count("koch", 3.0, 1 / 32) == 96
        with pytest.raises(CatalogError, match="needs 258 steps"):
            _step_count("mistico", 2.0, 2 / 258)

    def test_default_resolutions_name_entries(self):
        assert set(DEFAULT_RESOLUTIONS) <= set(catalog_names())

    @pytest.mark.parametrize("name", catalog_names())
    def test_resolution_rule(self, name):
        h = DEFAULT_RESOLUTIONS.get(name)
        if h is None:
            for resolution in (0.125, 0.25, 0.5, 1.0):
                with pytest.raises(CatalogError, match="does not take a resolution"):
                    run_entry(name, resolution=resolution)
        else:
            default, explicit = run_entry(name), run_entry(name, resolution=h)
            assert explicit.checks == default.checks
            assert explicit.extras == default.extras

    @pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
    def test_entry_passes(self, name):
        result = run_entry(name)
        assert result.name == name
        assert result.passed, failing(result)
        assert result.report.verdict is EXPECTED_VERDICTS[name]

    def test_finer_resolution_shrinks_mistico_excess(self):
        coarse = run_entry("mistico")
        fine = run_entry("mistico", resolution=1 / 16)
        assert fine.passed, failing(fine)
        assert 0.0 < fine.extras["excess"] < coarse.extras["excess"]

    def test_mistico_excess_tracks_grid_step(self):
        result = run_entry("mistico")
        h = result.extras["h"]
        assert result.extras["excess"] == pytest.approx(
            gamma1(IntervalSet.of(-1.0, 1.0)) * h, abs=1e-9
        )

    def test_seed_only_varies_randomized_checks(self):
        a = run_entry("fig3-01", seed=1)
        b = run_entry("fig3-01", seed=2)
        assert a.passed and b.passed
        assert a.extras["min_partition_cost"] != b.extras["min_partition_cost"]

    def test_gperfinito_boundaries_grow(self):
        result = run_entry("gperfinito")
        b1, b2, b3 = result.extras["boundaries"]
        assert b1 < b2 < b3


class TestSnowflakeCurve:
    def test_polygon_growth(self):
        assert len(koch_snowflake(0)) == 3
        assert len(koch_snowflake(1)) == 12
        assert len(koch_snowflake(2)) == 48

    def test_vertices_stay_in_view(self):
        for x, y in koch_snowflake(3):
            assert abs(x) < 1.5 and abs(y) < 1.5


class TestSweeps:
    def test_unknown_family(self):
        with pytest.raises(CatalogError):
            sweep("nope")

    def test_mistico_sweep(self):
        result = sweep("mistico", resolutions=[1 / 8, 1 / 16])
        assert result.passed, failing(result)
        assert [r.h for r in result.rows] == [1 / 8, 1 / 16]
        assert result.rows[0].excess > result.rows[1].excess > 0.0
        for r in result.rows:
            assert r.excess == pytest.approx(r.p_gamma_e - r.p_gamma_f, abs=1e-15)

    def test_unannotated_sweep(self):
        result = sweep("unannotated")
        assert result.passed, failing(result)
        for r in result.rows:
            assert abs(r.excess) <= 1e-10

    def test_koch_sweep(self):
        result = sweep("koch", resolutions=[0, 1])
        assert result.passed, failing(result)
        assert [r.h for r in result.rows] == [0.0, 1.0]

    # each is refused before any profile or polygon is built
    @pytest.mark.parametrize(
        "family, resolutions",
        [
            ("unannotated", [1e-300]),
            ("unannotated", [1e-6]),
            ("unannotated", [1 / 2, 1 / 256]),
            ("unannotated", [2 / (_MAX_STEPS + 1)]),
            ("koch", [2.5]),
            ("koch", [-1]),
            ("koch", [0, _MAX_KOCH_ITERATIONS + 1]),
            ("koch", [12]),
        ],
    )
    def test_unbuildable_resolution_refused(self, no_sweep_build, family, resolutions):
        with pytest.raises(CatalogError, match=f"sweep family '{family}'"):
            sweep(family, resolutions)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan")])
    def test_non_positive_step_refused(self, no_sweep_build, resolution):
        for resolutions in ([resolution], [1 / 2, resolution]):
            with pytest.raises(CatalogError, match="sweep family 'unannotated'.*must be positive"):
                sweep("unannotated", resolutions)

    @pytest.mark.parametrize("bad", [1e-300, 0.0, float("nan"), 0.3, 2 / 3])
    def test_every_mistico_step_checked_before_a_build(self, monkeypatch, bad):
        built = []
        real = ehrhard.catalog._mistico_profile

        def counted(h):
            built.append(h)
            return real(h)

        monkeypatch.setattr(ehrhard.catalog, "_mistico_profile", counted)
        with pytest.raises(CatalogError):
            sweep("mistico", [1 / 64, bad])
        assert built == []

    def test_caps_admit_their_bound(self):
        assert _MAX_KOCH_ITERATIONS >= 4
        result = sweep("unannotated", [2 / _MAX_STEPS])
        assert result.passed, failing(result)
        result = sweep("koch", [float(_MAX_KOCH_ITERATIONS)])
        assert result.passed, failing(result)
        assert [r.h for r in result.rows] == [float(_MAX_KOCH_ITERATIONS)]

    def test_csv_shape(self):
        result = sweep("mistico", resolutions=[1 / 8])
        lines = result.csv().splitlines()
        assert lines[0] == "h,p_gamma_f,p_gamma_e,excess"
        assert len(lines) == 2
        h, pf, pe, excess = (float(x) for x in lines[1].split(","))
        assert (h, pf, pe, excess) == (
            result.rows[0].h,
            result.rows[0].p_gamma_f,
            result.rows[0].p_gamma_e,
            result.rows[0].excess,
        )


class TestRendering:
    def test_profile_render_deterministic(self):
        result = run_entry("fig2-top")
        a = render_profile(result.profile, result.report)
        b = render_profile(result.profile, result.report)
        assert a == b
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")

    def test_counterexample_uses_two_tones(self):
        result = run_entry("fig2-top")
        svg = render_profile(result.profile, result.report)
        plain = render_profile(result.profile)
        assert svg != plain

    def test_planar_base_renders_heatmap(self):
        result = run_entry("koch")
        svg = render_profile(result.profile, result.report)
        assert "<svg" in svg and "rect" in svg

    def test_columnar_render(self):
        result = run_entry("fig2-top")
        svg = render_columnar(
            result.report.counterexample,
            minus_cells=result.report.certificate.minus_cells,
        )
        assert svg.count("<rect") >= 3
