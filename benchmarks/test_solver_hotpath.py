"""Solver hot-path benchmark: workspace solver vs. the allocating oracle.

Run explicitly (excluded from tier-1 by ``testpaths`` and the ``bench``
marker)::

    PYTHONPATH=src python -m pytest benchmarks/test_solver_hotpath.py -v

Writes ``BENCH_solver_hotpath.json`` at the repo root with steps/sec and
tracemalloc allocation peaks for every (grid, scheme, backend) point, and
asserts the refactor's headline number: the workspace pipeline must be at
least 1.3x faster than the allocating step on 64^3 RK2 with the numpy
backend.  The allocating step is the test suite's oracle
(``tests/allocating_rk.py``); its records carry ``"workspace": false``.
"""

import pathlib

import pytest

from repro.benchkit.hotpath import run_suite, write_json
from tests.allocating_rk import AllocatingSolver

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_solver_hotpath.json"


@pytest.mark.bench
def test_solver_hotpath_suite():
    payload = run_suite(AllocatingSolver, grid_sizes=(32, 64),
                        schemes=("rk2", "rk4"), steps=6, warmup=2)
    write_json(payload, str(JSON_PATH))

    # Headline acceptance number: >= 1.3x steps/sec on 64^3 RK2, numpy
    # backend, workspace vs. the allocating oracle.
    speedup = payload["speedups"]["n64-rk2-numpy"]
    assert speedup >= 1.3, (
        f"workspace speedup {speedup:.2f}x below the 1.3x floor "
        f"(see {JSON_PATH})"
    )

    # The numpy-backend workspace path must not allocate full grids at
    # steady state; the allocating oracle always does (that is the point of
    # the refactor).  Other backends (scipy, fftw) return fresh arrays from
    # their transform calls, so only their steps/sec is of interest.
    for rec in payload["results"]:
        if rec["workspace"] and rec["backend"] == "numpy":
            assert rec["peak_alloc_bytes"] < rec["fullgrid_bytes"], (
                f"workspace run {rec} allocated a full grid at steady state"
            )
