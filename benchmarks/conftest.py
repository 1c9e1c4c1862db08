"""Shared fixtures for the benchmark harness."""

import sys
from pathlib import Path

import pytest

# The hot-path bench times the test suite's allocating oracle
# (``tests.allocating_rk``), so the repo root must be importable.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from repro.machine.summit import summit


@pytest.fixture(scope="session")
def machine():
    return summit()
