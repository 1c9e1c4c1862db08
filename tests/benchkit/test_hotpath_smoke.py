"""Tier-1 smoke test for the hot-path benchmark harness.

The full sweep lives in ``benchmarks/test_solver_hotpath.py`` (``bench``
marker); this runs the same code on a 16^3 grid for two steps so the harness
itself — timing, tracemalloc accounting, JSON shape — is exercised on every
test run without measurable cost.
"""

import json

from repro.benchkit.hotpath import (
    benchmark_solver,
    run_suite,
    to_metrics_records,
    write_json,
    write_metrics_jsonl,
)
from tests.allocating_rk import AllocatingSolver


def test_benchmark_solver_smoke():
    r = benchmark_solver(16, "rk2", steps=2, warmup=1)
    assert r.n == 16
    assert r.workspace
    assert r.steps_per_sec > 0
    assert r.seconds_per_step > 0
    assert r.fullgrid_bytes == 16**3 * 8
    # Steady-state workspace steps must not allocate a full grid.
    assert not r.allocates_full_grids


def test_benchmark_solver_legacy_smoke():
    payload = run_suite(AllocatingSolver, grid_sizes=(16,), schemes=("rk2",),
                        backends=(), steps=1, warmup=1)
    (r,) = payload["results"]
    assert not r["workspace"]
    assert r["backend"] == "numpy"
    assert r["steps_per_sec"] > 0
    # The allocating oracle is the baseline because it does allocate.
    assert r["peak_alloc_bytes"] >= r["fullgrid_bytes"]


def test_run_suite_smoke(tmp_path):
    payload = run_suite(AllocatingSolver, grid_sizes=(16,), schemes=("rk2",),
                        backends=("numpy",), steps=1, warmup=1,
                        trace_alloc=False)
    # One baseline + one workspace record, and the speedup keyed as documented.
    assert len(payload["results"]) == 2
    assert set(payload["speedups"]) == {"n16-rk2-numpy"}
    assert payload["speedups"]["n16-rk2-numpy"] > 0

    path = write_json(payload, str(tmp_path / "bench.json"))
    with open(path, encoding="utf-8") as fh:
        round_trip = json.load(fh)
    assert round_trip["suite"] == "solver_hotpath"
    assert round_trip["results"][0]["n"] == 16


def test_write_json_stamps_provenance(tmp_path, monkeypatch):
    import os

    monkeypatch.setenv("REPRO_GIT_SHA", "feedc0de")
    path = write_json({"suite": "x", "results": []},
                      str(tmp_path / "b.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    prov = doc["provenance"]
    assert prov["git_sha"] == "feedc0de"
    assert prov["cores_available"] == os.cpu_count()
    assert prov["timestamp_iso"].endswith("Z")


def test_write_json_caller_provenance_wins(tmp_path):
    path = write_json({"suite": "x", "provenance": {"git_sha": "pinned"}},
                      str(tmp_path / "b.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["provenance"] == {"git_sha": "pinned"}


def test_suite_emits_metric_records(tmp_path):
    payload = run_suite(AllocatingSolver, grid_sizes=(16,), schemes=("rk2",),
                        backends=("numpy",), steps=1, warmup=1,
                        trace_alloc=False)
    records = payload["metrics"]
    assert records == to_metrics_records(payload)
    # Three gauges per measured operating point, metric-record schema.
    assert len(records) == 3 * len(payload["results"])
    assert all(r["kind"] == "metric" and r["type"] == "gauge" for r in records)
    names = {r["name"] for r in records}
    assert names == {"solver.step.seconds", "solver.steps_per_sec",
                     "solver.peak_alloc_bytes"}
    assert all(set(r["labels"]) == {"n", "scheme", "backend", "workspace"}
               for r in records)

    path = write_metrics_jsonl(payload, str(tmp_path / "bench.jsonl"))
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    assert lines == records
