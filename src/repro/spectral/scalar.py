"""Passive-scalar transport: the advective-diffusive equation of Sec. 2.

The paper notes its governing equation "is a partial differential equation
of the advective-diffusive type, which occurs in many studies of transport
phenomena"; the Georgia Tech production-code lineage (Clay et al. 2018,
the paper's Ref. [5]) solves exactly this for turbulent mixing at high
Schmidt number.  This module adds passive scalars to the solver:

    d(theta)/dt + u . grad(theta) = D lap(theta) - u_y * G

where ``D = nu / Sc`` is the scalar diffusivity (Schmidt number ``Sc``) and
``G`` an optional uniform mean scalar gradient (in y) whose interaction
with the velocity sustains scalar fluctuations — the standard configuration
for stationary scalar mixing studies.

Each scalar is one more block of the shared integrating-factor RK stepper
(:mod:`repro.spectral.stepper`), advanced in the same stages as the
velocity; the advection term ``div(u theta)`` is formed pseudo-spectrally
(four inverse and three forward transforms per scalar per stage) and
dealiased with the solver's mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import NavierStokesSolver, SolverConfig
from repro.spectral.stepper import Block
from repro.spectral.workspace import SpectralWorkspace

__all__ = ["PassiveScalar", "ScalarMixingSolver", "scalar_spectrum", "scalar_variance"]


def scalar_variance(theta_hat: np.ndarray, grid: SpectralGrid) -> float:
    """<theta^2>/2, the scalar analogue of kinetic energy."""
    return float(0.5 * np.sum(grid.hermitian_weights * np.abs(theta_hat) ** 2))


def scalar_dissipation(theta_hat: np.ndarray, grid: SpectralGrid, diffusivity: float) -> float:
    """chi = 2 D <|grad theta|^2>/2 = D sum k^2 |theta_hat|^2 (weighted)."""
    return float(
        diffusivity
        * np.sum(grid.hermitian_weights * grid.k_squared * np.abs(theta_hat) ** 2)
    )


def scalar_spectrum(theta_hat: np.ndarray, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Spherically binned scalar-variance spectrum; sums to the variance."""
    w = grid.hermitian_weights
    mode_e = 0.5 * w * np.abs(theta_hat) ** 2
    e_k = np.bincount(
        grid.shell_index.ravel(), weights=mode_e.ravel(), minlength=grid.num_shells
    )
    k = np.arange(grid.num_shells, dtype=float) * grid.k_fundamental
    return k, e_k


@dataclass
class PassiveScalar:
    """One scalar field and its physical parameters.

    Attributes
    ----------
    schmidt:
        Schmidt number Sc = nu / D.
    mean_gradient:
        Uniform imposed gradient G in the y direction; the production term
        ``-u_y G`` then feeds scalar fluctuations from the velocity field.
    """

    theta_hat: np.ndarray
    schmidt: float = 1.0
    mean_gradient: float = 0.0

    def __post_init__(self) -> None:
        if self.schmidt <= 0:
            raise ValueError("Schmidt number must be positive")

    def diffusivity(self, nu: float) -> float:
        return nu / self.schmidt


class ScalarMixingSolver:
    """Couples :class:`NavierStokesSolver` with passive-scalar transport.

    The velocity field evolves exactly as in the plain solver (the scalar
    is passive); each scalar is advanced in the same RK stages, using the
    *same* velocity stage values, so the coupled update retains the
    scheme's formal order.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.spectral import SpectralGrid, SolverConfig, random_isotropic_field
    >>> g = SpectralGrid(16)
    >>> rng = np.random.default_rng(0)
    >>> u0 = random_isotropic_field(g, rng, energy=1.0)
    >>> s = ScalarMixingSolver(g, u0, SolverConfig(nu=0.05, phase_shift=False))
    >>> s.add_scalar(g.zeros_spectral(), schmidt=1.0, mean_gradient=1.0)
    0
    >>> _ = s.step(0.01)
    >>> scalar_variance(s.scalars[0].theta_hat, g) > 0   # produced by -u_y G
    True
    """

    def __init__(
        self,
        grid: SpectralGrid,
        u_hat: np.ndarray,
        config: Optional[SolverConfig] = None,
        forcing=None,
        workspace: Optional[SpectralWorkspace] = None,
    ):
        self.grid = grid
        self.flow = _ScalarCarryingFlow(self, grid, u_hat, config, forcing, workspace)
        self.config = self.flow.config
        # Scalars share the flow solver's workspace: one buffer arena and
        # one integrating-factor cache for the whole coupled system.
        self.workspace = self.flow.workspace
        self.scalars: list[PassiveScalar] = []
        self._mask = self.flow._mask

    # -- scalar management ---------------------------------------------------

    def add_scalar(
        self,
        theta_hat: np.ndarray,
        schmidt: float = 1.0,
        mean_gradient: float = 0.0,
    ) -> int:
        """Register a scalar; returns its index in :attr:`scalars`."""
        if theta_hat.shape != self.grid.spectral_shape:
            raise ValueError(
                f"scalar must have spectral shape {self.grid.spectral_shape}"
            )
        theta = np.array(theta_hat, dtype=self.grid.cdtype, copy=True)
        theta *= self._mask
        self.scalars.append(
            PassiveScalar(theta, schmidt=schmidt, mean_gradient=mean_gradient)
        )
        return len(self.scalars) - 1

    # -- right-hand side ----------------------------------------------------

    def _scalar_rhs(
        self,
        theta_hat: np.ndarray,
        u_hat: np.ndarray,
        scalar: PassiveScalar,
        out: np.ndarray,
    ) -> None:
        """-(div(u theta))_hat - G u_y, dealiased, into ``out`` (diffusion
        is exact); transforms and products run in workspace buffers."""
        ws = self.workspace
        kxc, kyc, kzc = ws.wavenumbers_c
        u = ws.physical("sc_u", 3)
        for i in range(3):
            ws.ifft3d(u_hat[i], out=u[i])
        theta = ws.ifft3d(theta_hat, out=ws.physical("sc_theta"))
        prod = ws.physical("sc_prod")
        ph = ws.spectral("sc_ph")
        tmp = ws.spectral("sc_tmp")
        np.multiply(u[0], theta, out=prod)
        np.multiply(kxc, ws.fft3d(prod, out=ph), out=out)
        for k, i in ((kyc, 1), (kzc, 2)):
            np.multiply(u[i], theta, out=prod)
            np.multiply(k, ws.fft3d(prod, out=ph), out=tmp)
            out += tmp
        out *= -1j
        out *= self._mask
        if scalar.mean_gradient != 0.0:
            np.multiply(scalar.mean_gradient, u_hat[1], out=tmp)
            out -= tmp

    # -- time stepping ---------------------------------------------------------

    def step(self, dt: float):
        """Advance velocity and all scalars by one step (RK2 or RK4)."""
        return self.flow.step(dt)


class _ScalarCarryingFlow(NavierStokesSolver):
    """The velocity solver, advancing a mixer's scalars in the same stages."""

    def __init__(self, mixer: ScalarMixingSolver, *args):
        super().__init__(*args)
        self._mixer = mixer

    def _blocks(self) -> list[Block]:
        nu = self.config.nu
        return super()._blocks() + [
            Block(s.theta_hat, s.diffusivity(nu), self.workspace, key=f"sc{i}")
            for i, s in enumerate(self._mixer.scalars)
        ]

    def _rhs(self, stages, outs) -> None:
        super()._rhs(stages, outs)
        for scalar, theta, out in zip(self._mixer.scalars, stages[1:], outs[1:]):
            self._mixer._scalar_rhs(theta, stages[0], scalar, out)
