"""Tests for distributed passive-scalar transport."""

import numpy as np
import pytest

from repro.dist.dist_scalar import DistributedScalarMixingSolver
from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field
from repro.spectral.scalar import ScalarMixingSolver, scalar_variance
from repro.spectral.solver import SolverConfig
from repro.spectral.transforms import fft3d


def build_pair(grid, ranks, scheme="rk2", schmidt=1.0, gradient=1.0, seed=3):
    rng = np.random.default_rng(seed)
    u0 = random_isotropic_field(grid, rng, energy=0.5)
    theta0 = fft3d(np.random.default_rng(seed + 1).standard_normal(grid.physical_shape), grid)
    cfg = SolverConfig(nu=0.04, scheme=scheme, phase_shift=False)

    serial = ScalarMixingSolver(grid, u0, cfg)
    serial.add_scalar(theta0, schmidt=schmidt, mean_gradient=gradient)

    dist = DistributedScalarMixingSolver(grid, VirtualComm(ranks), u0, cfg)
    dist.add_scalar(theta0, schmidt=schmidt, mean_gradient=gradient)
    return serial, dist


class TestEquivalence:
    def test_rk2_step_matches_serial(self, grid24):
        serial, dist = build_pair(grid24, ranks=4)
        serial.step(0.005)
        dist.step(0.005)
        assert np.allclose(
            dist.gather_scalar(0), serial.scalars[0].theta_hat, atol=1e-14
        )
        assert np.allclose(dist.gather_state(), serial.flow.u_hat, atol=1e-14)

    def test_rk4_step_matches_serial(self, grid24):
        serial, dist = build_pair(grid24, ranks=3, scheme="rk4")
        serial.step(0.005)
        dist.step(0.005)
        assert np.allclose(
            dist.gather_scalar(0), serial.scalars[0].theta_hat, atol=1e-14
        )

    def test_multi_step_trajectory(self, grid24):
        serial, dist = build_pair(grid24, ranks=2, schmidt=4.0)
        for _ in range(3):
            serial.step(0.004)
            dist.step(0.004)
        assert np.allclose(
            dist.gather_scalar(0), serial.scalars[0].theta_hat, atol=1e-13
        )

    def test_variance_diagnostic_matches(self, grid24):
        serial, dist = build_pair(grid24, ranks=4)
        serial.step(0.005)
        dist.step(0.005)
        assert dist.scalar_variance(0) == pytest.approx(
            scalar_variance(serial.scalars[0].theta_hat, grid24), rel=1e-12
        )

    def test_result_independent_of_rank_count(self, grid24):
        states = []
        for ranks in (1, 2, 4):
            _, dist = build_pair(grid24, ranks=ranks)
            dist.step(0.005)
            states.append(dist.gather_scalar(0))
        for other in states[1:]:
            assert np.allclose(states[0], other, atol=1e-13)


class TestMechanics:
    def test_gradient_production_from_zero(self, grid16):
        grid = grid16
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid, rng, energy=0.5)
        dist = DistributedScalarMixingSolver(
            grid, VirtualComm(2), u0, SolverConfig(nu=0.05, phase_shift=False)
        )
        dist.add_scalar(grid.zeros_spectral(), mean_gradient=2.0)
        dist.step(0.01)
        assert dist.scalar_variance(0) > 0

    @pytest.mark.parametrize("scheme, stages", [("rk2", 2), ("rk4", 4)])
    def test_extra_alltoalls_per_scalar(self, grid16, scheme, stages):
        """Each scalar's RHS transforms the three velocity components and
        the scalar to physical space and the three fluxes back: 7 slab
        transforms, one all-to-all each, per RK stage, on top of the base
        solver's 9 per stage."""
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        cfg = SolverConfig(nu=0.05, scheme=scheme, phase_shift=False)
        plain = DistributedScalarMixingSolver(grid16, VirtualComm(2), u0, cfg)
        plain.step(0.005)
        base = plain.comm.stats.count("alltoall")
        assert base == 9 * stages

        withs = DistributedScalarMixingSolver(grid16, VirtualComm(2), u0, cfg)
        withs.add_scalar(grid16.zeros_spectral(), mean_gradient=1.0)
        withs.step(0.005)
        extra = withs.comm.stats.count("alltoall") - base
        assert extra == 7 * stages

    def test_validation(self, grid16):
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        dist = DistributedScalarMixingSolver(
            grid16, VirtualComm(2), u0, SolverConfig(nu=0.05, phase_shift=False)
        )
        with pytest.raises(ValueError):
            dist.add_scalar(np.zeros((4, 4, 3), dtype=complex))
        with pytest.raises(ValueError):
            dist.add_scalar(grid16.zeros_spectral(), schmidt=0.0)
        with pytest.raises(ValueError):
            dist.step(0.0)


class TestVelocityUnaffectedByScalars:
    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    @pytest.mark.parametrize("phase_shift", [True, False])
    def test_velocity_bit_identical_to_plain_solver(self, grid16, scheme, phase_shift):
        rng = np.random.default_rng(4)
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        theta0 = fft3d(rng.standard_normal(grid16.physical_shape), grid16)
        cfg = dict(nu=0.05, scheme=scheme, phase_shift=phase_shift, seed=9)
        plain = DistributedNavierStokesSolver(
            grid16, VirtualComm(2), u0, SolverConfig(**cfg)
        )
        mixer = DistributedScalarMixingSolver(
            grid16, VirtualComm(2), u0, SolverConfig(**cfg)
        )
        mixer.add_scalar(theta0, schmidt=2.0, mean_gradient=1.0)
        for _ in range(2):
            plain.step(0.01)
            mixer.step(0.01)
        assert np.array_equal(mixer.gather_state(), plain.gather_state())

    @pytest.mark.parametrize("scheme, evals", [("rk2", 2), ("rk4", 4)])
    def test_one_velocity_rhs_per_stage(self, grid16, scheme, evals):
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        mixer = DistributedScalarMixingSolver(
            grid16, VirtualComm(2), u0, SolverConfig(nu=0.05, scheme=scheme)
        )
        mixer.add_scalar(grid16.zeros_spectral(), mean_gradient=1.0)
        assert mixer.step(0.01).nonlinear_evals == evals
