"""Golden Taylor-Green decay on uneven slabs: bit-identical to balanced.

Uneven heights change *where* planes live, never what is computed: every
distributed configuration (scheme x comm backend x pipeline) on heights
``(10, 6, 8)`` must reproduce the balanced even-slab run bit-for-bit, and
both must track the single-rank reference to spectral accuracy (serial
vs distributed differ only by FFT reassociation, hence ``allclose``).
"""

import numpy as np
import pytest

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.virtual_mpi import VirtualComm
from repro.mpi.procs import make_comm
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import taylor_green_field
from repro.spectral.solver import NavierStokesSolver, SolverConfig

HEIGHTS_24 = (10, 6, 8)
STEPS = 2
DT = 0.004


def _run_distributed(grid, u0, cfg, comm_kind, heights=None, pipeline=None):
    ranks = 3
    comm = make_comm(comm_kind, ranks) if comm_kind == "procs" else VirtualComm(ranks)
    kwargs = {}
    if pipeline is not None:
        kwargs.update(npencils=2, pipeline=pipeline)
    try:
        solver = DistributedNavierStokesSolver(
            grid, comm, u0, cfg, heights=heights, **kwargs
        )
        try:
            for _ in range(STEPS):
                solver.step(DT)
            return solver.gather_state()
        finally:
            solver.close()
    finally:
        closer = getattr(comm, "close", None)
        if closer is not None:
            closer()


@pytest.fixture(scope="module")
def tg24():
    grid = SpectralGrid(24)
    return grid, taylor_green_field(grid)


class TestGoldenTaylorGreen24:
    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    @pytest.mark.parametrize("comm_kind", ["virtual", "procs"])
    @pytest.mark.parametrize("pipeline", ["sync", "threads"])
    def test_uneven_bit_identical_to_even(self, tg24, scheme, comm_kind, pipeline):
        grid, u0 = tg24
        cfg = SolverConfig(nu=0.02, scheme=scheme, phase_shift=False, seed=11)
        even = _run_distributed(grid, u0, cfg, "virtual")
        uneven = _run_distributed(
            grid, u0, cfg, comm_kind, heights=HEIGHTS_24, pipeline=pipeline
        )
        assert np.array_equal(uneven, even), (
            f"{scheme}/{comm_kind}/{pipeline} diverged from the even-slab run"
        )

    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    def test_uneven_matches_single_rank_reference(self, tg24, scheme):
        grid, u0 = tg24
        cfg = SolverConfig(nu=0.02, scheme=scheme, phase_shift=False, seed=11)
        serial = NavierStokesSolver(grid, u0, cfg)
        for _ in range(STEPS):
            serial.step(DT)
        uneven = _run_distributed(grid, u0, cfg, "virtual", heights=HEIGHTS_24)
        assert np.allclose(uneven, serial.u_hat, atol=1e-13)

    def test_energy_decays_monotonically(self, tg24):
        grid, u0 = tg24
        cfg = SolverConfig(nu=0.02, scheme="rk2", phase_shift=False, seed=11)
        solver = DistributedNavierStokesSolver(
            grid, VirtualComm(3), u0, cfg, heights=HEIGHTS_24
        )
        energies = [solver.kinetic_energy()]
        for _ in range(3):
            energies.append(solver.step(DT).energy)
        solver.close()
        assert all(b < a for a, b in zip(energies, energies[1:]))


class TestGoldenTaylorGreen32:
    """32 is not divisible by 3 ranks, so *every* partition is explicit —
    the invariant becomes partition-independence: any two feasible heights
    vectors produce the same bits."""

    @pytest.fixture(scope="class")
    def tg32(self):
        grid = SpectralGrid(32)
        return grid, taylor_green_field(grid)

    def test_skewed_partition_smoke(self, tg32):
        grid, u0 = tg32
        cfg = SolverConfig(nu=0.02, scheme="rk2", phase_shift=False, seed=11)
        near_even = _run_distributed(grid, u0, cfg, "virtual", heights=(11, 11, 10))
        skewed = _run_distributed(
            grid, u0, cfg, "virtual", heights=(16, 8, 8), pipeline="threads"
        )
        assert np.array_equal(skewed, near_even)

    @pytest.mark.parametrize("pipeline", [None, "sync", "threads"])
    def test_zero_height_rank_full_solve(self, tg32, pipeline):
        grid, u0 = tg32
        cfg = SolverConfig(nu=0.02, scheme="rk2", phase_shift=False, seed=11)
        near_even = _run_distributed(grid, u0, cfg, "virtual", heights=(11, 11, 10))
        degenerate = _run_distributed(
            grid, u0, cfg, "virtual", heights=(20, 0, 12), pipeline=pipeline
        )
        assert np.array_equal(degenerate, near_even)
