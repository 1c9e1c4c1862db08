"""Spectral-space differential operators and the nonlinear term.

Everything operates on half-complex spectral arrays of shape
``(3, N, N, N//2+1)`` for vectors (component axis first) or
``(N, N, N//2+1)`` for scalars, with the wavenumbers supplied by a
:class:`~repro.spectral.grid.SpectralGrid`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.spectral.grid import SpectralGrid
from repro.spectral.transforms import fft3d, ifft3d

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (workspace imports grid)
    from repro.spectral.workspace import SpectralWorkspace

__all__ = [
    "curl_hat",
    "divergence_hat",
    "gradient_hat",
    "nonlinear_conservative",
    "nonlinear_rotational",
    "project",
    "vorticity_hat",
]


def _mul_components(v: np.ndarray, factor: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = v[i] * factor`` one component at a time.

    A single broadcast ufunc over the component axis can fall back to
    numpy's buffered (allocating) iteration; per-component same-shape calls
    never do, and the arithmetic is identical.  A ``v`` shaped like
    ``factor`` (a scalar field) is one component.
    """
    if v.ndim == factor.ndim:
        np.multiply(v, factor, out=out)
        return
    for i in range(out.shape[0]):
        np.multiply(v[i], factor, out=out[i])


def _imul_components(v: np.ndarray, factor: np.ndarray) -> None:
    """``v[i] *= factor`` one component at a time (see `_mul_components`)."""
    _mul_components(v, factor, out=v)


def _check_vector(v_hat: np.ndarray, grid: SpectralGrid) -> None:
    if v_hat.shape != (3, *grid.spectral_shape):
        raise ValueError(
            f"expected vector spectral shape {(3, *grid.spectral_shape)}, got {v_hat.shape}"
        )


def gradient_hat(s_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Gradient of a scalar: (i kx s, i ky s, i kz s)."""
    if s_hat.shape != grid.spectral_shape:
        raise ValueError(f"expected {grid.spectral_shape}, got {s_hat.shape}")
    kx, ky, kz = grid.k_vectors
    out = np.empty((3, *grid.spectral_shape), dtype=s_hat.dtype)
    out[0] = 1j * kx * s_hat
    out[1] = 1j * ky * s_hat
    out[2] = 1j * kz * s_hat
    return out


def divergence_hat(v_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Divergence of a vector: i k . v."""
    _check_vector(v_hat, grid)
    kx, ky, kz = grid.k_vectors
    return 1j * (kx * v_hat[0] + ky * v_hat[1] + kz * v_hat[2])


def curl_hat(v_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Curl of a vector: i k x v."""
    _check_vector(v_hat, grid)
    kx, ky, kz = grid.k_vectors
    out = np.empty_like(v_hat)
    out[0] = 1j * (ky * v_hat[2] - kz * v_hat[1])
    out[1] = 1j * (kz * v_hat[0] - kx * v_hat[2])
    out[2] = 1j * (kx * v_hat[1] - ky * v_hat[0])
    return out


def vorticity_hat(u_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Vorticity is the curl of velocity (alias for readability)."""
    return curl_hat(u_hat, grid)


def project(
    v_hat: np.ndarray,
    grid: SpectralGrid,
    out: np.ndarray | None = None,
    workspace: Optional["SpectralWorkspace"] = None,
) -> np.ndarray:
    """Project onto the divergence-free subspace: v - k (k.v) / |k|^2.

    This is the plane-perpendicular-to-k projection of the paper's Eq. 2,
    which simultaneously removes the pressure-gradient term and enforces
    mass conservation.  With a ``workspace`` every intermediate lives in a
    pre-allocated buffer (the ``v_hat is out`` in-place call allocates
    nothing at all).
    """
    _check_vector(v_hat, grid)
    kx, ky, kz = grid.k_vectors
    if workspace is not None:
        # Full-grid complex wavenumbers/divisor: same values as the real
        # broadcast versions (bit-identical arithmetic) but every ufunc
        # below is same-shape same-dtype, i.e. unbuffered/allocation-free.
        kxc, kyc, kzc = workspace.wavenumbers_c
        k2nz = workspace.constant("k2nz", grid.k_squared_nonzero)
        k_dot_v = workspace.spectral("proj_kdv")
        tmp = workspace.spectral("proj_tmp")
        np.multiply(kxc, v_hat[0], out=k_dot_v)
        np.multiply(kyc, v_hat[1], out=tmp)
        k_dot_v += tmp
        np.multiply(kzc, v_hat[2], out=tmp)
        k_dot_v += tmp
        k_dot_v /= k2nz
        if out is None:
            out = np.empty_like(v_hat)
        mean_mode = v_hat[:, 0, 0, 0].copy()
        for i, k in enumerate((kxc, kyc, kzc)):
            np.multiply(k, k_dot_v, out=tmp)
            np.subtract(v_hat[i], tmp, out=out[i])
        out[:, 0, 0, 0] = mean_mode
        return out
    k_dot_v = kx * v_hat[0] + ky * v_hat[1] + kz * v_hat[2]
    k_dot_v /= grid.k_squared_nonzero
    if out is None:
        out = np.empty_like(v_hat)
    np.subtract(v_hat[0], kx * k_dot_v, out=out[0])
    np.subtract(v_hat[1], ky * k_dot_v, out=out[1])
    np.subtract(v_hat[2], kz * k_dot_v, out=out[2])
    # The mean mode carries no pressure; keep it unchanged.
    out[:, 0, 0, 0] = v_hat[:, 0, 0, 0]
    return out


def nonlinear_conservative(
    u_hat: np.ndarray,
    grid: SpectralGrid,
    mask: np.ndarray | None = None,
    shift: np.ndarray | None = None,
    workspace: Optional["SpectralWorkspace"] = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Convective term in conservative (divergence) form, unprojected.

    Computes ``-( div(u u) )_hat``: transforms the three velocity components
    to physical space, forms the six distinct products ``u_i u_j`` there
    (this is the pseudo-spectral evaluation the paper describes in Sec. 2),
    transforms them back and assembles ``-i k_j (u_i u_j)_hat``.

    Parameters
    ----------
    mask:
        Optional dealiasing mask applied to the result.
    shift:
        Optional phase-shift factor ``exp(i k . d)`` (see
        :func:`repro.spectral.dealias.phase_shift_factor`); products are
        formed on the shifted grid and shifted back, moving aliasing errors
        onto different modes so that averaging over shifts cancels them.
    workspace:
        When given, every transform and product runs in pre-allocated
        workspace buffers and the result is accumulated into ``out`` (or a
        workspace buffer) — the zero-allocation hot path.
    """
    _check_vector(u_hat, grid)
    kx, ky, kz = grid.k_vectors

    if workspace is not None:
        return _nonlinear_conservative_ws(u_hat, grid, mask, shift, workspace, out)

    if shift is not None:
        work = u_hat * shift
    else:
        work = u_hat
    u = np.stack([ifft3d(work[i], grid) for i in range(3)])

    # Six distinct symmetric products u_i u_j.
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    prod_hat = {}
    for i, j in pairs:
        ph = fft3d(u[i] * u[j], grid)
        if shift is not None:
            ph *= np.conj(shift)
        prod_hat[(i, j)] = ph
        prod_hat[(j, i)] = ph

    k = (kx, ky, kz)
    out = np.empty_like(u_hat)
    for i in range(3):
        acc = k[0] * prod_hat[(i, 0)]
        acc += k[1] * prod_hat[(i, 1)]
        acc += k[2] * prod_hat[(i, 2)]
        out[i] = -1j * acc
    if mask is not None:
        out *= mask
    return out


def _nonlinear_conservative_ws(
    u_hat: np.ndarray,
    grid: SpectralGrid,
    mask: np.ndarray | None,
    shift: np.ndarray | None,
    ws: "SpectralWorkspace",
    out: np.ndarray | None,
) -> np.ndarray:
    """Workspace implementation of :func:`nonlinear_conservative`.

    Forms one product at a time and accumulates ``-i k_j (u_i u_j)_hat``
    directly into ``out`` using the pair symmetry, so the peak working set
    is one physical vector + a handful of single-component scratch arrays —
    and nothing is allocated after the workspace warms up.
    """
    k = ws.wavenumbers_c

    if shift is not None:
        src = ws.spectral("nl_shifted", 3)
        _mul_components(u_hat, shift, out=src)
        shift_conj = ws.conjugate_phase_shift(shift, key="nl_shift_conj")
    else:
        src = u_hat
        shift_conj = None

    u = ws.physical("nl_u", 3)
    for i in range(3):
        ws.ifft3d(src[i], out=u[i])

    if out is None:
        out = ws.spectral("nl_out", 3)
    out[...] = 0.0

    prod = ws.physical("nl_prod")
    ph = ws.spectral("nl_ph")
    tmp = ws.spectral("nl_tmp")
    # Accumulation visits pairs in lexicographic order so each out[i]
    # receives its kx, ky, kz contributions in the same order as the
    # allocating implementation (floating-point equivalence to round-off).
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    for i, j in pairs:
        np.multiply(u[i], u[j], out=prod)
        ws.fft3d(prod, out=ph)
        if shift_conj is not None:
            ph *= shift_conj
        np.multiply(k[j], ph, out=tmp)
        out[i] += tmp
        if i != j:
            np.multiply(k[i], ph, out=tmp)
            out[j] += tmp
    out *= -1j
    if mask is not None:
        _imul_components(out, ws.constant("mask", mask))
    return out


def nonlinear_rotational(
    u_hat: np.ndarray,
    grid: SpectralGrid,
    mask: np.ndarray | None = None,
    shift: np.ndarray | None = None,
    workspace: Optional["SpectralWorkspace"] = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Convective term in rotational form ``u x omega``, unprojected.

    Identical to the conservative form for exact (unaliased) arithmetic up
    to a gradient (removed by projection), but needs only three forward
    transforms instead of six — the classic cost/robustness trade-off.
    With a ``workspace`` the transforms and cross product run in reused
    buffers (see :func:`nonlinear_conservative`).
    """
    _check_vector(u_hat, grid)

    if workspace is not None:
        return _nonlinear_rotational_ws(u_hat, grid, mask, shift, workspace, out)

    if shift is not None:
        work_u = u_hat * shift
    else:
        work_u = u_hat
    omega_hat = curl_hat(work_u, grid)

    u = np.stack([ifft3d(work_u[i], grid) for i in range(3)])
    w = np.stack([ifft3d(omega_hat[i], grid) for i in range(3)])

    cross = np.empty_like(u)
    cross[0] = u[1] * w[2] - u[2] * w[1]
    cross[1] = u[2] * w[0] - u[0] * w[2]
    cross[2] = u[0] * w[1] - u[1] * w[0]

    out = np.empty_like(u_hat)
    for i in range(3):
        ch = fft3d(cross[i], grid)
        if shift is not None:
            ch *= np.conj(shift)
        out[i] = ch
    if mask is not None:
        out *= mask
    return out


def _nonlinear_rotational_ws(
    u_hat: np.ndarray,
    grid: SpectralGrid,
    mask: np.ndarray | None,
    shift: np.ndarray | None,
    ws: "SpectralWorkspace",
    out: np.ndarray | None,
) -> np.ndarray:
    """Workspace implementation of :func:`nonlinear_rotational`."""
    kx, ky, kz = ws.wavenumbers_c

    if shift is not None:
        src = ws.spectral("nl_shifted", 3)
        _mul_components(u_hat, shift, out=src)
        shift_conj = ws.conjugate_phase_shift(shift, key="nl_shift_conj")
    else:
        src = u_hat
        shift_conj = None

    # Vorticity: i k x u, assembled component-wise in spectral scratch.
    omega_hat = ws.spectral("nl_rot_omega", 3)
    tmp = ws.spectral("nl_tmp")
    curls = (
        (0, ky, src[2], kz, src[1]),
        (1, kz, src[0], kx, src[2]),
        (2, kx, src[1], ky, src[0]),
    )
    for i, ka, va, kb, vb in curls:
        np.multiply(ka, va, out=omega_hat[i])
        np.multiply(kb, vb, out=tmp)
        omega_hat[i] -= tmp
        omega_hat[i] *= 1j

    u = ws.physical("nl_u", 3)
    w = ws.physical("nl_rot_w", 3)
    for i in range(3):
        ws.ifft3d(src[i], out=u[i])
        ws.ifft3d(omega_hat[i], out=w[i])

    cross = ws.physical("nl_rot_cross", 3)
    prod = ws.physical("nl_prod")
    crosses = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for i, a, b in crosses:
        np.multiply(u[a], w[b], out=cross[i])
        np.multiply(u[b], w[a], out=prod)
        cross[i] -= prod

    if out is None:
        out = ws.spectral("nl_out", 3)
    for i in range(3):
        ws.fft3d(cross[i], out=out[i])
        if shift_conj is not None:
            out[i] *= shift_conj
    if mask is not None:
        _imul_components(out, ws.constant("mask", mask))
    return out
