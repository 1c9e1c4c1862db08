"""The allocating integrating-factor RK step, kept as a test oracle.

This is the solver step as first written, before the workspace hot path:
every stage evaluates the right-hand side through the public
:mod:`repro.spectral.operators` functions and builds fresh full-grid
temporaries.  Its arithmetic is independent of
:mod:`repro.spectral.stepper`, so the tests compare the library solver
against it to round-off, and the hot-path benchmark times it as the
allocating baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.spectral.dealias import phase_shift_factor, random_shift, sharp_truncation_mask
from repro.spectral.diagnostics import cfl_number
from repro.spectral.forcing import Forcing, NoForcing
from repro.spectral.grid import SpectralGrid
from repro.spectral.operators import (
    nonlinear_conservative,
    nonlinear_rotational,
    project,
)
from repro.spectral.solver import SolverConfig

__all__ = ["AllocatingSolver"]


class AllocatingSolver:
    """Pseudo-spectral IF-RK2/RK4 integrator that allocates every stage.

    Takes the same arguments as :class:`repro.spectral.NavierStokesSolver`
    (less the workspace and observability) and draws the same phase shifts
    from the same seed, so both trajectories agree to round-off.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        u_hat: np.ndarray,
        config: Optional[SolverConfig] = None,
        forcing: Optional[Forcing] = None,
    ):
        self.grid = grid
        self.config = config or SolverConfig()
        self.forcing = forcing if forcing is not None else NoForcing()
        self._rng = np.random.default_rng(self.config.seed)
        self._mask = sharp_truncation_mask(grid, self.config.dealias)
        self.u_hat = np.array(u_hat, dtype=grid.cdtype, copy=True)
        self.u_hat *= self._mask
        project(self.u_hat, grid, out=self.u_hat)
        self.time = 0.0

    def _nonlinear(self, u_hat: np.ndarray) -> np.ndarray:
        cfg = self.config
        shift = None
        if cfg.phase_shift:
            shift = phase_shift_factor(self.grid, random_shift(self.grid, self._rng))
        form = (
            nonlinear_conservative
            if cfg.convective_form == "conservative"
            else nonlinear_rotational
        )
        nl = form(u_hat, self.grid, mask=self._mask, shift=shift)
        rhs = project(nl, self.grid, out=nl)
        f = self.forcing.rhs(u_hat, self.grid)
        if f is not None:
            rhs += f
        return rhs

    def _factor(self, dt: float) -> np.ndarray:
        return np.exp(-self.config.nu * self.grid.k_squared * dt).astype(
            self.grid.dtype
        )

    def step(self, dt: float) -> None:
        if self.config.scheme == "rk2":
            e_full = self._factor(dt)
            r1 = self._nonlinear(self.u_hat)
            u_star = e_full * (self.u_hat + dt * r1)
            r2 = self._nonlinear(u_star)
            self.u_hat = e_full * (self.u_hat + (0.5 * dt) * r1) + (0.5 * dt) * r2
        else:
            e_half = self._factor(0.5 * dt)
            e_full = e_half * e_half
            u0 = self.u_hat
            k1 = self._nonlinear(u0)
            k2 = self._nonlinear(e_half * (u0 + (0.5 * dt) * k1))
            k3 = self._nonlinear(e_half * u0 + (0.5 * dt) * k2)
            k4 = self._nonlinear(e_full * u0 + dt * (e_half * k3))
            self.u_hat = e_full * u0 + (dt / 6.0) * (
                e_full * k1 + 2.0 * e_half * (k2 + k3) + k4
            )
        self.forcing.post_step(self.u_hat, self.grid, dt)
        self.time += dt

    def stable_dt(self, cfl: float = 0.5) -> float:
        trial = cfl_number(self.u_hat, self.grid, dt=1.0)
        return np.inf if trial == 0 else cfl / trial
