"""Tests for checkpoint save/load."""

import json

import numpy as np
import pytest

from repro.io import CheckpointError, load_checkpoint, save_checkpoint
from repro.spectral.dealias import DealiasRule
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field
from repro.spectral.scalar import ScalarMixingSolver
from repro.spectral.solver import NavierStokesSolver, SolverConfig


@pytest.fixture()
def solver(grid16, rng):
    s = NavierStokesSolver(
        grid16,
        random_isotropic_field(grid16, rng, energy=0.5),
        SolverConfig(nu=0.03, scheme="rk4", phase_shift=False,
                     dealias=DealiasRule.TWO_THIRDS),
    )
    s.run(3, 0.005)
    return s


class TestRoundTrip:
    def test_state_and_clock_restored(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        restored = load_checkpoint(path)
        assert np.array_equal(restored.u_hat, solver.u_hat)
        assert restored.time == solver.time
        assert restored.step_count == solver.step_count

    def test_config_restored(self, solver, tmp_path):
        restored = load_checkpoint(save_checkpoint(tmp_path / "ck.npz", solver))
        assert restored.config.nu == 0.03
        assert restored.config.scheme == "rk4"
        assert restored.config.dealias is DealiasRule.TWO_THIRDS

    def test_restart_continues_identically(self, solver, tmp_path):
        """A restarted run must follow the original trajectory exactly."""
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        restored = load_checkpoint(path)
        solver.run(3, 0.005)
        restored.run(3, 0.005)
        assert np.array_equal(restored.u_hat, solver.u_hat)

    def test_older_header_with_retired_option_restarts_identically(
        self, solver, tmp_path
    ):
        """Checkpoints written before the allocating step was retired carry
        a ``use_workspace`` option in their config; they still restart
        bit-exactly."""
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(arrays["header"].tobytes().decode("utf-8"))
        header["config"]["use_workspace"] = True
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **arrays)

        restored = load_checkpoint(old)
        assert restored.config.scheme == "rk4"
        solver.run(3, 0.005)
        restored.run(3, 0.005)
        assert np.array_equal(restored.u_hat, solver.u_hat)

    def test_grid_passed_explicitly(self, solver, tmp_path, grid16):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        restored = load_checkpoint(path, grid=grid16)
        assert restored.grid is grid16


class TestScalars:
    def test_scalar_round_trip(self, grid16, rng, tmp_path):
        mix = ScalarMixingSolver(
            grid16,
            random_isotropic_field(grid16, rng, energy=0.5),
            SolverConfig(nu=0.05, phase_shift=False),
        )
        mix.add_scalar(grid16.zeros_spectral(), schmidt=4.0, mean_gradient=1.5)
        mix.step(0.005)
        path = save_checkpoint(tmp_path / "mix.npz", mix)
        restored = load_checkpoint(path, with_scalars=True)
        assert isinstance(restored, ScalarMixingSolver)
        assert len(restored.scalars) == 1
        assert restored.scalars[0].schmidt == 4.0
        assert restored.scalars[0].mean_gradient == 1.5
        assert np.array_equal(
            restored.scalars[0].theta_hat, mix.scalars[0].theta_hat
        )

    def test_scalar_checkpoint_requires_flag(self, grid16, rng, tmp_path):
        mix = ScalarMixingSolver(
            grid16,
            random_isotropic_field(grid16, rng, energy=0.5),
            SolverConfig(nu=0.05, phase_shift=False),
        )
        mix.add_scalar(grid16.zeros_spectral())
        path = save_checkpoint(tmp_path / "mix.npz", mix)
        with pytest.raises(CheckpointError, match="scalars"):
            load_checkpoint(path)

    def test_plain_checkpoint_loads_as_mixer_when_asked(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        restored = load_checkpoint(path, with_scalars=True)
        assert isinstance(restored, ScalarMixingSolver)
        assert restored.scalars == []


class TestValidation:
    def test_grid_mismatch_rejected(self, solver, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", solver)
        with pytest.raises(CheckpointError, match="grid mismatch"):
            load_checkpoint(path, grid=SpectralGrid(32))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "x.npz"
        np.savez(bogus, a=np.zeros(3))
        with pytest.raises(CheckpointError, match="missing header"):
            load_checkpoint(bogus)

    def test_corrupt_header_rejected(self, tmp_path):
        bogus = tmp_path / "x.npz"
        np.savez(bogus, header=np.frombuffer(b"\xff\xfe{", dtype=np.uint8))
        with pytest.raises(CheckpointError):
            load_checkpoint(bogus)
