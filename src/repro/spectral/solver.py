"""Time integration of the spectral Navier-Stokes equations (paper Sec. 2).

Each Fourier mode obeys the ODE (paper Eq. 2)::

    d u_hat / dt = P_k[ -(div(u u))_hat ] - nu k^2 u_hat + f_hat

The stiff viscous term is removed exactly with the integrating factor
``exp(nu k^2 t)``; the remaining nonlinearity is advanced with explicit
second- or fourth-order Runge-Kutta (RK2/RK4 — the paper reports RK2
timings; RK4 "approximately doubles" the per-step cost, which the
performance layer's ablation bench verifies).

The step itself is the shared in-place stepper of
:mod:`repro.spectral.stepper`: every stage writes into pre-allocated
:class:`~repro.spectral.workspace.SpectralWorkspace` buffers, integrating
factors are memoized by ``(nu, dt)``, and transforms go through the
configured backend, so a steady-state step allocates no full-grid array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional

import numpy as np

from repro.obs import NULL_OBS, NULL_SPAN
from repro.spectral.dealias import DealiasRule, random_shift, sharp_truncation_mask
from repro.spectral.diagnostics import cfl_number, dissipation_rate, kinetic_energy
from repro.spectral.forcing import Forcing, NoForcing
from repro.spectral.grid import SpectralGrid
from repro.spectral.operators import nonlinear_conservative, nonlinear_rotational, project
from repro.spectral.stepper import Block, rk_step
from repro.spectral.workspace import SpectralWorkspace

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["NavierStokesSolver", "SolverConfig", "StepResult"]


@dataclass
class SolverConfig:
    """Numerical options for :class:`NavierStokesSolver`.

    Attributes
    ----------
    nu:
        Kinematic viscosity.
    scheme:
        ``"rk2"`` (the paper's reported configuration) or ``"rk4"``.
    dealias:
        Truncation rule; combined with phase shifting when
        ``phase_shift=True`` (the paper's Sec. 2: "a combination of
        phase-shifting and truncation").
    phase_shift:
        Evaluate the nonlinear term on a randomly shifted grid each stage
        pair, turning residual aliases into zero-mean noise (Rogallo 1981).
    convective_form:
        ``"conservative"`` (six products, as the production DNS forms
        ``u_i u_j``) or ``"rotational"`` (u x omega, three products).
    seed:
        Seed for the random shifts.
    fft_backend:
        Transform backend name (``"auto"``, ``"numpy"``, ``"scipy"``,
        ``"fftw"``); ``"auto"`` consults ``REPRO_FFT_BACKEND``.
    diagnostics_every:
        Compute the (two full-grid reductions) energy/dissipation
        diagnostics every this many steps; other steps report NaN.  The
        default 1 preserves the historical per-step behavior; benchmark
        runs set it large (or 0 to disable entirely).
    """

    nu: float = 0.01
    scheme: Literal["rk2", "rk4"] = "rk2"
    dealias: DealiasRule = DealiasRule.SQRT2_THIRDS
    phase_shift: bool = True
    convective_form: Literal["conservative", "rotational"] = "conservative"
    seed: int = 2019
    fft_backend: str = "auto"
    diagnostics_every: int = 1

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.scheme not in ("rk2", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.convective_form not in ("conservative", "rotational"):
            raise ValueError(f"unknown convective form {self.convective_form!r}")
        if self.diagnostics_every < 0:
            raise ValueError("diagnostics_every must be >= 0 (0 disables)")


@dataclass(frozen=True)
class StepResult:
    """Cheap per-step record returned by :meth:`NavierStokesSolver.step`.

    ``energy`` and ``dissipation`` are NaN on steps where diagnostics were
    skipped (see :attr:`SolverConfig.diagnostics_every`).
    """

    time: float
    dt: float
    energy: float
    dissipation: float
    nonlinear_evals: int


class RKSolverBase:
    """The step the serial and distributed solvers share.

    One :func:`~repro.spectral.stepper.rk_step` over the subclass's
    ``_blocks()`` and ``_rhs(stages, outs)``, then ``_post_step(dt)``, the
    clock, ``_energy_dissipation()`` every ``config.diagnostics_every``
    steps, and the step's span and metrics.
    """

    def _step_span_meta(self, dt: float) -> dict:
        return {"n": self.grid.n, "scheme": self.config.scheme, "dt": dt}

    def _post_step(self, dt: float) -> None:
        pass

    def step(self, dt: float) -> StepResult:
        """Advance one time step of size ``dt``."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        obs = self.obs
        spans = obs.spans
        with (spans.span("solver.step", category="step",
                         **self._step_span_meta(dt))
              if obs.enabled else NULL_SPAN) as step_span:
            evals = rk_step(self.config.scheme, dt, self._blocks(), self._rhs, spans)
            self._post_step(dt)
            self.time += dt
            self.step_count += 1
            energy = dissipation = math.nan
            every = self.config.diagnostics_every
            if every > 0 and self.step_count % every == 0:
                with spans.span("diagnostics.energy", category="diagnostics"):
                    energy, dissipation = self._energy_dissipation()
        if obs.enabled:
            obs.metrics.counter("solver.steps").inc()
            obs.metrics.histogram("solver.step.seconds").observe(
                step_span.duration
            )
        return StepResult(
            time=self.time,
            dt=dt,
            energy=energy,
            dissipation=dissipation,
            nonlinear_evals=evals,
        )


class NavierStokesSolver(RKSolverBase):
    """Pseudo-spectral Navier-Stokes integrator on a periodic cube.

    Parameters
    ----------
    grid:
        The spectral grid.
    u_hat:
        Initial velocity coefficients, shape ``(3, N, N, N//2+1)``; a copy
        is taken and kept solenoidal.
    config:
        Numerical options.
    forcing:
        Energy injection scheme (default: none, i.e. decaying turbulence).
    workspace:
        A :class:`SpectralWorkspace` to draw scratch buffers from; created
        on demand when omitted.  Pass an existing one to share buffers with
        other solvers on the same grid (e.g. passive scalars).
    obs:
        An :class:`~repro.obs.Observability` bundle.  When given, every
        step records per-RK-stage and per-phase wall-clock spans (fft,
        nonlinear, projection, integrating factor, forcing, diagnostics)
        plus counters/histograms (``solver.step.seconds``, ``fft.calls``,
        ...).  Default: the shared disabled bundle — near-zero overhead.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.spectral import SpectralGrid, taylor_green_field
    >>> g = SpectralGrid(32)
    >>> solver = NavierStokesSolver(g, taylor_green_field(g),
    ...                             SolverConfig(nu=0.05, scheme="rk2"))
    >>> result = solver.step(dt=0.01)
    >>> result.energy < 0.125  # viscous decay from E(0)=1/8
    True
    """

    def __init__(
        self,
        grid: SpectralGrid,
        u_hat: np.ndarray,
        config: Optional[SolverConfig] = None,
        forcing: Optional[Forcing] = None,
        workspace: Optional[SpectralWorkspace] = None,
        obs: "Observability | None" = None,
    ):
        self.grid = grid
        self.config = config or SolverConfig()
        self.forcing = forcing if forcing is not None else NoForcing()
        self.obs = obs if obs is not None else NULL_OBS
        if u_hat.shape != (3, *grid.spectral_shape):
            raise ValueError(
                f"initial condition must have shape {(3, *grid.spectral_shape)}"
            )
        self.u_hat = np.array(u_hat, dtype=grid.cdtype, copy=True)
        self.time = 0.0
        self.step_count = 0
        self._rng = np.random.default_rng(self.config.seed)
        self._mask = sharp_truncation_mask(grid, self.config.dealias)
        self._nl_evals = 0
        self.workspace = workspace or SpectralWorkspace(
            grid, backend=self.config.fft_backend, obs=self.obs
        )
        if workspace is not None and obs is not None:
            # A caller-shared workspace reports into this solver's obs.
            self.workspace.obs = self.obs
            self.workspace.pool.obs = self.obs
        # Dealias the initial condition so invariants hold from step 0.
        self.u_hat *= self._mask
        project(self.u_hat, grid, out=self.u_hat)

    # -- right-hand side -----------------------------------------------------

    def _nonlinear(self, u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Projected, dealiased nonlinear term (+ forcing rhs), into ``out``."""
        cfg = self.config
        ws = self.workspace
        obs = self.obs
        spans = obs.spans
        self._nl_evals += 1
        if obs.enabled:
            obs.metrics.counter("solver.rhs.calls").inc()
        # The "nonlinear" span brackets transforms + products; the
        # transforms record their own nested "fft" spans, so this
        # category's *exclusive* time is pure product/assembly work.
        with spans.span("rhs.nonlinear", category="nonlinear"):
            shift = None
            if cfg.phase_shift:
                shift = ws.phase_shift(random_shift(self.grid, self._rng))
            form = (
                nonlinear_conservative
                if cfg.convective_form == "conservative"
                else nonlinear_rotational
            )
            nl = form(u_hat, self.grid, mask=self._mask, shift=shift,
                      workspace=ws, out=out)
        with spans.span("rhs.projection", category="projection"):
            rhs = project(nl, self.grid, out=nl, workspace=ws)
        with spans.span("rhs.forcing", category="forcing"):
            f = self.forcing.rhs(u_hat, self.grid)
            if f is not None:
                rhs += f
        return rhs

    def _blocks(self) -> list[Block]:
        """The fields one step advances: the velocity, read from ``u_hat``
        every step (a checkpoint restart rebinds it)."""
        return [Block(self.u_hat, self.config.nu, self.workspace)]

    def _rhs(self, stages, outs) -> None:
        self._nonlinear(stages[0], out=outs[0])

    def _post_step(self, dt: float) -> None:
        with self.obs.spans.span("forcing.post_step", category="forcing"):
            self.forcing.post_step(self.u_hat, self.grid, dt)

    def _energy_dissipation(self) -> tuple[float, float]:
        return (
            kinetic_energy(self.u_hat, self.grid),
            dissipation_rate(self.u_hat, self.grid, self.config.nu),
        )

    # -- public API -----------------------------------------------------------

    def run(self, nsteps: int, dt: float) -> list[StepResult]:
        """Advance ``nsteps`` steps; returns the per-step records."""
        return [self.step(dt) for _ in range(nsteps)]

    def stable_dt(self, cfl: float = 0.5) -> float:
        """A CFL-limited time step for the current field.

        The three inverse transforms inside :func:`cfl_number` reuse
        workspace scratch (no full-grid allocations) and are timed under
        their own ``diagnostics`` span, so adaptive-dt drivers see this
        cost in the breakdown instead of it hiding in step time.
        """
        if cfl <= 0:
            raise ValueError("cfl must be positive")
        with self.obs.spans.span("diagnostics.cfl", category="diagnostics"):
            trial = cfl_number(self.u_hat, self.grid, dt=1.0,
                               workspace=self.workspace)
        if trial == 0:
            return np.inf
        return cfl / trial

    @property
    def nonlinear_evaluations(self) -> int:
        """Total pseudo-spectral RHS evaluations (2 per RK2 step, 4 per RK4)."""
        return self._nl_evals
