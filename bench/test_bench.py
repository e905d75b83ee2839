"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import ehrhard  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def test_suite_generator_matches_the_test_suite():
    sys.path.insert(0, str(ROOT / "tests"))
    conftest = pytest.importorskip("conftest")
    ours, theirs = random.Random(20260817), random.Random(20260817)
    for _ in range(200):
        assert workloads.random_profile_1d(ehrhard, ours) == conftest.random_profile_1d(theirs)


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_cli_inputs_match_the_catalog(h):
    inputs = workloads.cli_inputs(ehrhard, h)
    assert inputs[f"mistico-h{h}"] == ehrhard.run_entry("mistico", h).profile
    assert inputs[f"koch-h{h}"] == ehrhard.run_entry("koch", h).profile


def test_self_times_add_up_to_the_root():
    # bench.op [0, 10] > rigidity_verdict [1, 9] > scene [2, 4], gauss_perimeter [5, 8]
    spans = [
        ["bench.op", "bench", -1, 0.0, 10.0],
        ["rigidity.rigidity_verdict", "rigidity", 0, 1.0, 9.0],
        ["profiles.scene", "profiles", 1, 2.0, 4.0],
        ["columnar.gauss_perimeter", "columnar", 1, 5.0, 8.0],
    ]
    m = tracing.layer_metrics(spans, passes=2)
    assert m["rigidity.verdict_s"] == 4.0
    assert m["rigidity.evidence_s"] == 1.5
    assert m["rigidity.self_s"] == 1.5
    assert m["bench.self_s"] == 1.0
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == 5.0


def test_check_ignores_unknown_report_keys_but_not_values():
    report = {
        "verdict": "NonRigid",
        "separating": True,
        "stats": {"cells": 3},
        "perimeter_check": {"candidate": 1.0, "symmetral": 0.5, "difference": 0.5},
    }
    want = workloads.summarize_rigidity(report)
    assert workloads.matches(want, workloads.summarize_rigidity(dict(report, stats={})))

    def with_difference(d):
        pc = dict(report["perimeter_check"], difference=d)
        return workloads.summarize_rigidity(dict(report, perimeter_check=pc))

    assert workloads.matches(want, with_difference(0.5 + 1e-13))
    assert not workloads.matches(want, with_difference(0.5 + 1e-9))
    assert not workloads.matches(want, dict(want, verdict="Rigid"))
