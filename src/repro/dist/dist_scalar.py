"""Distributed passive-scalar transport over virtual ranks.

Extends :class:`repro.dist.dist_solver.DistributedNavierStokesSolver` with
the advective-diffusive scalar of :mod:`repro.spectral.scalar`, distributed
in the same kz-slabs: each scalar adds one block per rank to the shared
stepper.  Each scalar costs four inverse and three forward distributed
transforms per RK stage (14 more all-to-alls per RK2 step per scalar) — the
bookkeeping production mixing codes live with, and the reason the paper's
D ~= 25 variable count grows quickly with scalars.

Verified against the serial :class:`repro.spectral.scalar.ScalarMixingSolver`
to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig
from repro.spectral.stepper import Block

__all__ = ["DistributedScalarMixingSolver"]


@dataclass
class _DistScalar:
    theta: list[np.ndarray]  # per-rank kz-slab pieces
    schmidt: float
    mean_gradient: float


class DistributedScalarMixingSolver(DistributedNavierStokesSolver):
    """Velocity + passive scalars, slab-decomposed.

    Scalars advance in the velocity's own RK stages, as in
    :class:`repro.spectral.scalar.ScalarMixingSolver`, so with matching
    seeds the serial and distributed trajectories agree to round-off for
    both fields.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        comm: VirtualComm,
        u_hat_global: np.ndarray,
        config: Optional[SolverConfig] = None,
    ):
        super().__init__(grid, comm, u_hat_global, config)
        self.scalars: list[_DistScalar] = []

    def add_scalar(
        self,
        theta_hat_global: np.ndarray,
        schmidt: float = 1.0,
        mean_gradient: float = 0.0,
    ) -> int:
        if theta_hat_global.shape != self.grid.spectral_shape:
            raise ValueError(
                f"scalar must have spectral shape {self.grid.spectral_shape}"
            )
        if schmidt <= 0:
            raise ValueError("Schmidt number must be positive")
        pieces = []
        for r in range(self.comm.size):
            sl = self.decomp.spectral_slice(r)
            local = np.array(theta_hat_global[sl], dtype=self.grid.cdtype, copy=True)
            local *= self._mask_locals[r]
            pieces.append(local)
        self.scalars.append(_DistScalar(pieces, schmidt, mean_gradient))
        return len(self.scalars) - 1

    # -- scalar RHS -----------------------------------------------------------

    def _scalar_rhs(
        self,
        theta: Sequence[np.ndarray],
        u_hat: Sequence[np.ndarray],
        scalar: _DistScalar,
        out: Sequence[np.ndarray],
    ) -> None:
        """-(div(u theta))_hat - G u_y per rank (dealiased), into ``out``."""
        size = self.comm.size
        u_phys = [
            self.fft.inverse([u_hat[r][c] for r in range(size)]) for c in range(3)
        ]
        theta_phys = self.fft.inverse(list(theta))
        flux_hat = [
            self.fft.forward(
                [u_phys[c][r] * theta_phys[r] for r in range(size)]
            )
            for c in range(3)
        ]
        for r, view in enumerate(self.views):
            rhs = out[r]
            np.multiply(view.kx, flux_hat[0][r], out=rhs)
            rhs += view.ky * flux_hat[1][r]
            rhs += view.kz * flux_hat[2][r]
            np.multiply(-1j, rhs, out=rhs)
            rhs *= self._mask_locals[r]
            if scalar.mean_gradient != 0.0:
                rhs -= scalar.mean_gradient * u_hat[r][1]

    # -- time stepping ------------------------------------------------------------

    def _blocks(self) -> list[Block]:
        blocks = super()._blocks()
        for i, scalar in enumerate(self.scalars):
            d = self.config.nu / scalar.schmidt
            blocks += [
                Block(theta, d, ws, key=f"sc{i}")
                for theta, ws in zip(scalar.theta, self._rank_workspaces)
            ]
        return blocks

    def _rhs(self, stages, outs) -> None:
        super()._rhs(stages, outs)
        size = self.comm.size
        for i, scalar in enumerate(self.scalars, start=1):
            mine = slice(i * size, (i + 1) * size)
            self._scalar_rhs(stages[mine], stages[:size], scalar, outs[mine])

    # -- diagnostics --------------------------------------------------------------

    def scalar_variance(self, index: int) -> float:
        scalar = self.scalars[index]
        locals_ = [
            float(0.5 * np.sum(v.hermitian_weights * np.abs(scalar.theta[r]) ** 2))
            for r, v in enumerate(self.views)
        ]
        return self.comm.allreduce(locals_)[0]

    def gather_scalar(self, index: int) -> np.ndarray:
        return np.concatenate(self.scalars[index].theta, axis=0)
