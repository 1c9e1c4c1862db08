"""Tests of the benchmark's own code, at a 32^3 grid.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from dnsbench import bench, tracing  # noqa: E402

N = 32
STEPS = 4

#: Layers that do not run on each workload (the layer map of BENCHMARK.json).
NOT_RUN = {
    "serial": ("dist.", "transpose.", "comm.", "copy.", "arena.", "pipeline.",
               "procs."),
    "slab": ("spectral.", "copy.", "arena.", "pipeline.", "procs."),
    "pencil-async": ("spectral.", "procs."),
    "procs": ("spectral.", "transpose.", "comm.a2a_s", "comm.a2a_calls",
              "copy.", "arena.", "pipeline."),
}


def _run(name, trace, steps=STEPS):
    return bench.run_workload(name, seed=3, seconds=0, trace=trace, n=N, steps=steps)


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def workload(request):
    return request.param


@pytest.fixture(scope="module")
def timed(workload):
    return _run(workload, trace=False)


@pytest.fixture(scope="module")
def traced(workload):
    return _run(workload, trace=True)


def _numbers(metrics, units):
    assert list(metrics) == list(units)
    for name, unit in units.items():
        assert metrics[name]["unit"] == unit
        assert set(metrics[name]) == {"value", "unit"}
        assert math.isfinite(metrics[name]["value"])


def test_timed_run_emits_every_end_to_end_metric(timed):
    assert timed.correct and timed.failed == 0
    assert timed.attempted == bench.SEGMENTS * (1 + STEPS)
    assert len(timed.details["checks"]) == len(timed.details["setups_s"]) == bench.SEGMENTS
    _numbers(timed.metrics, bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in timed.metrics.values())
    assert 0 < timed.details["tail_percentile"] <= 100
    assert timed.details["step_s"]["unit"] == "s"
    assert timed.details["step_s"]["value"] > 0
    line = json.loads(json.dumps(timed.summary()))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_traced_run_emits_every_layer_metric_or_na(workload, traced):
    assert traced.correct
    _numbers(traced.metrics, tracing.PER_LAYER_UNITS)
    expected = sorted(
        m for m in tracing.PER_LAYER_UNITS if m.startswith(NOT_RUN[workload])
    )
    assert traced.details["na"] == expected
    for m in expected:
        assert traced.metrics[m]["value"] == 0
    values = {k: v["value"] for k, v in traced.metrics.items()}
    assert 0 < values["trace.coverage"] <= 1
    assert values["solver.step_alloc_peak_mb"] > 0
    transforms = "spectral.fft3d_calls" if workload == "serial" else "dist.transform_calls"
    assert values[transforms] == 18  # 3 inverse + 6 forward per RHS, 2 RHS


def test_traced_run_is_bit_identical_to_untraced(workload, traced):
    # The traced run adds one tracemalloc step after its loop; a plain run's
    # final state is that of its last segment.
    plain = _run(workload, trace=False, steps=STEPS + 1)
    assert np.array_equal(plain.final_state, traced.final_state)


def test_out_of_core_stages_bypass_line_transforms(traced, workload):
    calls = traced.details["calls_by_entry_point"]
    if workload == "pencil-async":
        assert not any(k.startswith("LineTransforms.") for k in calls)
        assert calls["numpy.fft.ifft"] > 0
    if workload == "slab":
        assert calls["LineTransforms.ifft"] > 0


def test_wrappers_are_removed_after_a_traced_run():
    before = {(o, a): vars(o)[a] for _, o, a, _ in tracing._targets()}
    result = _run("pencil-async", trace=True, steps=2)
    assert result.correct
    for (owner, attr), raw in before.items():
        assert vars(owner)[attr] is raw, f"{owner}.{attr} still wrapped"


def test_install_uninstall_restores_solver_instance():
    from repro.spectral.grid import SpectralGrid
    from repro.spectral.initial import random_isotropic_field
    from repro.spectral.solver import SolverConfig

    grid = SpectralGrid(N)
    u0 = random_isotropic_field(grid, np.random.default_rng(0))
    solver = bench.WORKLOADS["slab"].build(grid, u0, SolverConfig(nu=0.02))
    tracer = tracing.Tracer()
    tracer.install(solver)
    assert "inverse" in vars(solver.fft)
    with pytest.raises(RuntimeError):
        tracer.install(solver)
    tracer.uninstall()
    assert "inverse" not in vars(solver.fft) and "forward" not in vars(solver.fft)
    assert not tracer.installed


def test_self_time_subtracts_covered_children():
    spans = [
        (1, None, "step", "step", 0.0, 10.0, 0, 0),
        (2, 1, "dist.transform", "x", 1.0, 4.0, 0, 0),
        (3, 1, "dist.transform", "x", 3.0, 6.0, 0, 0),
        (4, 2, "fft.line", "numpy.fft.fft", 1.0, 2.0, 0, 0),
        (5, 4, "fft.line", "LineTransforms.fft", 1.0, 1.5, 0, 0),
    ]
    v, info = tracing.layer_metrics(spans, 1, floor_fft_s=2.0, floor_copy_bps=1.0)
    assert v["trace.unattributed_s"] == pytest.approx(5.0)  # 10 - |[1, 6]|
    assert v["trace.coverage"] == pytest.approx(0.5)
    assert v["dist.solver_self_s"] == pytest.approx(4.0)  # 10 - 3 - 3
    assert v["fft.line_calls"] == 1 and v["fft.line_s"] == pytest.approx(1.0)
    assert v["fft.line_floor_x"] == pytest.approx(0.5)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert bench._tail(range(40)) == (29, 75.0)
    assert bench._tail([3, 1, 2]) == (3, 100.0)


class _Step:
    def __init__(self, energy, dissipation):
        self.energy, self.dissipation = energy, dissipation


def test_energy_budget_check_flags_a_wrong_budget():
    dt = 0.1
    good = [_Step(1.0 - 0.1 * dt * i, 0.1) for i in range(5)]
    assert bench.check_energy_budget(good, dt)["ok"]
    gaining = [_Step(1.0 + 0.1 * dt * i, 0.1) for i in range(5)]
    assert not bench.check_energy_budget(gaining, dt)["ok"]
    assert not bench.check_energy_budget(good[:1], dt)["ok"]


def test_state_check_flags_a_perturbed_state():
    from repro.spectral.grid import SpectralGrid
    from repro.spectral.initial import random_isotropic_field
    from repro.spectral.solver import NavierStokesSolver, SolverConfig

    grid = SpectralGrid(N)
    u0 = random_isotropic_field(grid, np.random.default_rng(1))
    cfg = SolverConfig(nu=0.02, seed=1, fft_backend="numpy")
    dt = 0.25 * grid.dx
    solver = NavierStokesSolver(grid, u0, cfg)
    solver.step(dt)
    one = solver.u_hat.copy()
    solver.step(dt)
    finals = [(2, solver.u_hat), (1, one), (2, solver.u_hat * (1 + 1e-8))]
    checks = bench.check_against_serial(finals, grid, u0, cfg, dt)
    assert [c["ok"] for c in checks] == [True, True, False]
    assert [c["steps"] for c in checks] == [2, 1, 2]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serial", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_no_process_outlives_a_procs_run():
    import run

    _run("procs", trace=False, steps=1)
    assert run._children()  # the shared-memory resource tracker is still up
    run._stop_children()
    assert run._children() == []
