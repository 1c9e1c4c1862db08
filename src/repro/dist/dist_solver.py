"""The pseudo-spectral Navier-Stokes step distributed over virtual ranks.

This mirrors :class:`repro.spectral.solver.NavierStokesSolver` but with the
state slab-decomposed exactly as the paper's production code: spectral
coefficients live in kz-slabs, each RK substage transforms the three
velocity components to physical space (y, transpose, z, x), forms the six
nonlinear products on y-slabs, and transforms them back (x, z, transpose,
y) — so each substage costs 3 inverse + 6 forward distributed 3-D FFTs and
therefore 9 all-to-alls in conservative form.  The time advance is the
serial solver's stepper (:mod:`repro.spectral.stepper`), one block per rank.

Given identical seeds the distributed solver reproduces the single-process
solver bit-for-bit up to floating-point reassociation (tests assert
agreement to ~1e-12), which is the correctness pillar under the performance
model of :mod:`repro.core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dist.decomp import SlabDecomposition, SlabGridView
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import NULL_OBS
from repro.spectral.dealias import sharp_truncation_mask
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import RKSolverBase, SolverConfig, StepResult
from repro.spectral.stepper import Block
from repro.spectral.workspace import SpectralWorkspace

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["DistributedNavierStokesSolver"]

#: The six distinct products u_i u_j of the conservative form.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class DistributedNavierStokesSolver(RKSolverBase):
    """Slab-decomposed RK2/RK4 pseudo-spectral integrator.

    Parameters
    ----------
    grid, comm:
        Global grid and the virtual communicator (P = comm.size ranks).
    u_hat_global:
        Global initial spectral field ``(3, N, N, N//2+1)``; scattered into
        kz-slabs internally.  (Production codes generate locally; taking the
        global field keeps tests crisp.)
    config:
        Shares :class:`~repro.spectral.solver.SolverConfig` with the serial
        solver, including the phase-shift RNG seed and
        ``diagnostics_every``, so both produce the same trajectory.  Only
        the conservative convective form is distributed.
    obs:
        An :class:`~repro.obs.Observability` bundle.  Collective stages
        record spans on the main lane; rank-local work records into one
        child tracer per rank, merged back after every step under a
        ``rank<r>.`` lane prefix — so exported timelines group per rank,
        exactly like the per-process rows of the paper's Fig. 10.  With the
        out-of-core engine each pipeline stream additionally records on a
        ``stream.<name>`` lane (h2d / compute / d2h / comm).
    npencils:
        When set, the distributed transforms run through the out-of-core
        pencil engine (:class:`~repro.dist.outofcore.OutOfCoreSlabFFT`)
        with this many pencils per slab, under a byte-budgeted device
        arena; ``pipeline``/``inflight``/``device_bytes`` are forwarded.
        Its pencil stages run ``numpy.fft``, so ``config.fft_backend``
        must then be ``"numpy"`` or ``"auto"`` (ValueError otherwise).
        ``None`` (default) keeps the whole-slab
        :class:`~repro.dist.slab_fft.SlabDistributedFFT`.
    pipeline:
        Out-of-core execution backend: ``"sync"`` (inline, bit-exact
        reference) or ``"threads"`` (Fig. 4 overlap on worker threads).
    inflight:
        Bounded in-flight pencil window for ``pipeline="threads"``.
    copy_strategy:
        How the out-of-core engine moves pencils between strided host
        views and device ring slots (``per_chunk``, ``memcpy2d``,
        ``zero_copy``, or ``auto`` for the runtime autotuner); forwarded
        to :class:`~repro.dist.outofcore.OutOfCoreSlabFFT`.  All
        strategies are bit-identical.
    heights, skew:
        Uneven slab decomposition: ``heights`` pins each rank's slab
        extent explicitly; ``skew`` derives one via
        :func:`~repro.dist.decomp.skewed_heights` (rank 0 gets ~skew x the
        fair share).  Mutually exclusive; both default to the balanced
        partition.
    dlb:
        Out-of-core compute-lane policy: ``"off"`` (single compute
        stream), ``"pinned"`` (one lane per rank) or ``"lend"``
        (deterministic lend/reclaim of pencils between lanes); forwarded
        to :class:`~repro.dist.outofcore.OutOfCoreSlabFFT`.
    rank_weights:
        Per-rank compute slowdown factors pricing the DLB lane clocks.
        Defaults to the ``fuzz`` profile's imbalance plan factors when an
        imbalance is injected, else all-1.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        comm: VirtualComm,
        u_hat_global: np.ndarray,
        config: Optional[SolverConfig] = None,
        obs: "Observability | None" = None,
        npencils: Optional[int] = None,
        pipeline: str = "sync",
        inflight: int = 3,
        device_bytes: Optional[float] = None,
        fuzz=None,
        monitor=None,
        copy_strategy: str = "memcpy2d",
        heights: Optional[Sequence[int]] = None,
        skew: Optional[float] = None,
        dlb: str = "off",
        rank_weights: Optional[Sequence[float]] = None,
    ):
        self.grid = grid
        self.comm = comm
        self.config = config or SolverConfig()
        self.obs = obs if obs is not None else NULL_OBS
        if self.config.convective_form != "conservative":
            raise ValueError(
                "the distributed solver only implements "
                "convective_form='conservative'"
            )
        if heights is not None and skew is not None:
            raise ValueError("pass either heights or skew, not both")
        if skew is not None:
            from repro.dist.decomp import skewed_heights

            heights = skewed_heights(grid.n, comm.size, skew)
        if rank_weights is None and fuzz is not None:
            from repro.verify.imbalance import ImbalancePlan

            plan = ImbalancePlan.from_profile(fuzz, comm.size)
            if plan is not None:
                rank_weights = [plan.factor(r) for r in range(comm.size)]
        if npencils is None:
            if fuzz is not None or monitor is not None:
                raise ValueError(
                    "fuzz/monitor verification hooks require the "
                    "out-of-core engine (set npencils)"
                )
            if dlb != "off":
                raise ValueError(
                    "dlb lanes require the out-of-core engine (set npencils)"
                )
            self.fft = SlabDistributedFFT(
                grid, comm, obs=self.obs, fft_backend=self.config.fft_backend,
                heights=heights,
            )
        else:
            from repro.dist.outofcore import OutOfCoreSlabFFT

            if self.config.fft_backend not in ("numpy", "auto"):
                raise ValueError(
                    f"fft_backend={self.config.fft_backend!r} is not "
                    "supported by the out-of-core engine, whose pencil "
                    "stages run numpy.fft; use 'numpy' or 'auto'"
                )
            self.fft = OutOfCoreSlabFFT(
                grid,
                comm,
                npencils,
                device_bytes=device_bytes,
                obs=self.obs,
                pipeline=pipeline,
                inflight=inflight,
                fuzz=fuzz,
                monitor=monitor,
                copy_strategy=copy_strategy,
                heights=heights,
                dlb=dlb,
                rank_weights=rank_weights,
            )
        self.decomp: SlabDecomposition = self.fft.decomp
        self.views = [SlabGridView(grid, self.decomp, r) for r in range(comm.size)]
        # One workspace per rank slab: the stepper's scratch buffers and the
        # memoized integrating factors, each over that rank's kz-slab.
        self._rank_workspaces = [
            SpectralWorkspace(view, backend="numpy") for view in self.views
        ]
        self._rank_spans = [
            self.obs.spans.child("local") for _ in range(comm.size)
        ]
        self._rng = np.random.default_rng(self.config.seed)

        if u_hat_global.shape != (3, *grid.spectral_shape):
            raise ValueError(
                f"initial condition must have shape {(3, *grid.spectral_shape)}"
            )
        mask = sharp_truncation_mask(grid, self.config.dealias)
        self._mask_locals = [v.slice_spectral(mask) for v in self.views]

        # State: per rank, (3, mz, N, nxh) complex.
        self.u_hat: list[np.ndarray] = []
        for r in range(comm.size):
            sl = self.decomp.spectral_slice(r)
            local = np.array(u_hat_global[:, sl], dtype=grid.cdtype, copy=True)
            local *= self._mask_locals[r]
            self.u_hat.append(local)
        for u, view in zip(self.u_hat, self.views):
            self._project_local(u, view)
        self.time = 0.0
        self.step_count = 0

    def close(self) -> None:
        """Release engine resources (stops out-of-core stream workers)."""
        closer = getattr(self.fft, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "DistributedNavierStokesSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- local spectral operations ------------------------------------------

    def _project_local(self, v: np.ndarray, view: SlabGridView) -> None:
        """Project ``v`` onto the divergence-free subspace, in place."""
        kx, ky, kz = view.kx, view.ky, view.kz
        k_dot_v = kx * v[0] + ky * v[1] + kz * v[2]
        k_dot_v /= view.k_squared_nonzero
        mean_mode = v[:, 0, 0, 0].copy() if view.owns_mean_mode else None
        v[0] -= kx * k_dot_v
        v[1] -= ky * k_dot_v
        v[2] -= kz * k_dot_v
        if mean_mode is not None:
            v[:, 0, 0, 0] = mean_mode

    def _shift_factor_local(self, view: SlabGridView, shift: np.ndarray) -> np.ndarray:
        phase = view.kx * shift[0] + view.ky * shift[1] + view.kz * shift[2]
        return np.exp(1j * phase).astype(self.grid.cdtype)

    # -- the distributed nonlinear term -----------------------------------------

    def _nonlinear(
        self, u_hat: Sequence[np.ndarray], out: Sequence[np.ndarray]
    ) -> None:
        """Projected, dealiased conservative convective term, written into
        the per-rank arrays ``out``."""
        cfg = self.config
        obs = self.obs
        size = self.comm.size
        if obs.enabled:
            obs.metrics.counter("solver.rhs.calls").inc()
        shift_locals = shift_conj = None
        if cfg.phase_shift:
            shift = self._rng.uniform(0.0, self.grid.dx, size=3)
            shift_locals = [self._shift_factor_local(v, shift) for v in self.views]
            shift_conj = [np.conj(f) for f in shift_locals]

        # Velocity components to physical space (3 inverse distributed FFTs).
        u_phys: list[list[np.ndarray]] = []  # [component][rank]
        for c in range(3):
            comp = [u_hat[r][c] for r in range(size)]
            if shift_locals is not None:
                comp = [comp[r] * shift_locals[r] for r in range(size)]
            u_phys.append(self.fft.inverse(comp))

        # Six products, transformed back (6 forward distributed FFTs).  Each
        # is folded into the components it feeds as soon as it arrives, so
        # only one is held at a time: component c accumulates
        # k_d (u_c u_d)_hat in the order d = 0, 1, 2.
        for i, j in _PAIRS:
            with obs.spans.span("nl.products", category="nonlinear"):
                prod_phys = [u_phys[i][r] * u_phys[j][r] for r in range(size)]
            ph = self.fft.forward(prod_phys)
            feeds = ((i, j), (j, i)) if i != j else ((i, j),)
            for r, view in enumerate(self.views):
                with self._rank_spans[r].span("nl.assemble", category="nonlinear"):
                    if shift_conj is not None:
                        ph[r] *= shift_conj[r]
                    k = (view.kx, view.ky, view.kz)
                    for c, d in feeds:
                        if d == 0:
                            np.multiply(k[0], ph[r], out=out[r][c])
                        else:
                            out[r][c] += k[d] * ph[r]

        for r, view in enumerate(self.views):
            nl = out[r]
            with self._rank_spans[r].span("nl.assemble", category="nonlinear"):
                np.multiply(-1j, nl, out=nl)
                nl *= self._mask_locals[r]
            with self._rank_spans[r].span("nl.project", category="projection"):
                self._project_local(nl, view)

    # -- time stepping ------------------------------------------------------------

    def _blocks(self) -> list[Block]:
        nu = self.config.nu
        return [Block(u, nu, ws) for u, ws in zip(self.u_hat, self._rank_workspaces)]

    def _rhs(self, stages, outs) -> None:
        self._nonlinear(stages, outs)  # reads the first comm.size blocks

    def _step_span_meta(self, dt: float) -> dict:
        return {**super()._step_span_meta(dt), "ranks": self.comm.size}

    def _energy_dissipation(self) -> tuple[float, float]:
        return self.kinetic_energy(), self.dissipation_rate()

    def step(self, dt: float) -> StepResult:
        """Advance one RK2 or RK4 step (same stepper as the serial solver)."""
        result = super().step(dt)
        if self.obs.enabled:
            # Fold each rank's local spans into the shared timeline, one
            # lane prefix per rank (Tracer.merge keeps them distinct).
            for r, rank_spans in enumerate(self._rank_spans):
                self.obs.spans.merge(rank_spans, lane_prefix=f"rank{r}.")
                rank_spans.clear()
        return result

    # -- global diagnostics (allreduce over ranks) -----------------------------

    def kinetic_energy(self) -> float:
        locals_ = [
            float(0.5 * np.sum(v.hermitian_weights * np.abs(u) ** 2))
            for u, v in zip(self.u_hat, self.views)
        ]
        return self.comm.allreduce(locals_)[0]

    def dissipation_rate(self) -> float:
        nu = self.config.nu
        locals_ = [
            float(nu * np.sum(v.hermitian_weights * v.k_squared * np.abs(u) ** 2))
            for u, v in zip(self.u_hat, self.views)
        ]
        return self.comm.allreduce(locals_)[0]

    def gather_state(self) -> np.ndarray:
        """Reassemble the global (3, N, N, N//2+1) spectral field."""
        return np.concatenate(self.u_hat, axis=1)
