"""The integrating-factor Runge-Kutta step every solver shares (paper Sec. 2).

Each spectral variable obeys ``dv/dt = R(v) - c k^2 v`` with its own
diffusion coefficient ``c`` (viscosity or scalar diffusivity).  The
integrating factor ``E = exp(-c k^2 dt)`` removes the stiff term exactly
and Heun's RK2 or classic RK4 advances the rest, as the paper advances all
of its D ~ 25 Fourier-space variables in one substage loop.

:func:`rk_step` advances a list of :class:`Block` s in place: one velocity
block (per rank when distributed), plus one per passive scalar (per rank).
One RHS callback fills every block's output from every block's stage
values, so a scalar sees exactly the velocity stages the flow uses.  Every
stage writes into named workspace buffers or the block's state, so a
steady-state step allocates no full-size array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.spectral.operators import _imul_components, _mul_components

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import SpanTracer
    from repro.spectral.workspace import SpectralWorkspace

__all__ = ["Block", "rk_step"]


@dataclass(frozen=True, eq=False)
class Block:
    """One spectral variable advanced in place.

    ``workspace`` supplies the block's scratch buffers, named ``<key>_*``,
    and its memoized integrating factors; blocks sharing a workspace need
    distinct keys.
    """

    state: np.ndarray
    coefficient: float
    workspace: "SpectralWorkspace"
    key: str = "rk"

    def buffer(self, name: str) -> np.ndarray:
        ncomp = self.state.shape[0] if self.state.ndim == 4 else None
        return self.workspace.spectral(f"{self.key}_{name}", ncomp)


def rk_step(
    scheme: str,
    dt: float,
    blocks: Sequence[Block],
    rhs: Callable[[Sequence[np.ndarray], Sequence[np.ndarray]], None],
    spans: "SpanTracer",
) -> int:
    """Advance every block by one IF-RK2/RK4 step; returns the RHS count.

    ``rhs(stages, outs)`` writes every block's ``R``, evaluated at the stage
    values ``stages``, into ``outs`` (both ordered like ``blocks``).
    """
    with spans.span("integrating_factor", category="integrating"):
        e_full = [b.workspace.integrating_factor(b.coefficient, dt) for b in blocks]
        if scheme == "rk4":
            e_half = [
                b.workspace.integrating_factor(b.coefficient, 0.5 * dt)
                for b in blocks
            ]
    if scheme == "rk2":
        _rk2(blocks, rhs, dt, e_full, spans)
        return 2
    _rk4(blocks, rhs, dt, e_half, e_full, spans)
    return 4


def _rk2(blocks, rhs, dt, e_full, spans) -> None:
    """Heun's method on the integrating-factor-transformed variable::

        u*      = E (u^n + dt R(u^n))
        u^{n+1} = E u^n + dt/2 ( E R(u^n) + R(u*) )
    """
    with spans.span("rk2.stage1", category="stage"):
        r1 = [b.buffer("r1") for b in blocks]
        rhs([b.state for b in blocks], r1)
        u_star = [b.buffer("stage") for b in blocks]
        for b, r, us, e in zip(blocks, r1, u_star, e_full):
            np.multiply(r, dt, out=us)
            us += b.state
            _imul_components(us, e)
    with spans.span("rk2.stage2", category="stage"):
        r2 = [b.buffer("r2") for b in blocks]
        rhs(u_star, r2)
        for b, ra, rb, e in zip(blocks, r1, r2, e_full):
            u = b.state
            ra *= 0.5 * dt
            u += ra
            _imul_components(u, e)
            rb *= 0.5 * dt
            u += rb


def _rk4(blocks, rhs, dt, e_half, e_full, spans) -> None:
    """Classic RK4 with the exact integrating factor::

        u^{n+1} = E u^n + dt/6 (E k1 + 2 E_half (k2 + k3) + k4)
    """
    u_s = [b.buffer("stage") for b in blocks]
    tmp = [b.buffer("tmp") for b in blocks]
    with spans.span("rk4.stage1", category="stage"):
        k1 = [b.buffer("k1") for b in blocks]
        rhs([b.state for b in blocks], k1)
        for b, k, s, eh in zip(blocks, k1, u_s, e_half):
            np.multiply(k, 0.5 * dt, out=s)
            s += b.state
            _imul_components(s, eh)
    with spans.span("rk4.stage2", category="stage"):
        k2 = [b.buffer("k2") for b in blocks]
        rhs(u_s, k2)
        for b, k, s, t, eh in zip(blocks, k2, u_s, tmp, e_half):
            np.multiply(k, 0.5 * dt, out=s)
            _mul_components(b.state, eh, out=t)
            s += t
    with spans.span("rk4.stage3", category="stage"):
        k3 = [b.buffer("k3") for b in blocks]
        rhs(u_s, k3)
        for b, k, s, t, eh, ef in zip(blocks, k3, u_s, tmp, e_half, e_full):
            _mul_components(k, eh, out=s)
            s *= dt
            _mul_components(b.state, ef, out=t)
            s += t
    with spans.span("rk4.stage4", category="stage"):
        k4 = [b.buffer("k4") for b in blocks]
        rhs(u_s, k4)
        for b, ka, kb, kc, kd, eh, ef in zip(blocks, k1, k2, k3, k4, e_half, e_full):
            u = b.state
            kb += kc
            _imul_components(kb, eh)
            kb *= 2.0
            _imul_components(ka, ef)
            ka += kb
            ka += kd
            ka *= dt / 6.0
            _imul_components(u, ef)
            u += ka
