"""Checkpoint / restart: save and load spectral solver state.

Long-running DNS campaigns (the paper: "simulations ... typically
integrated over many thousands of time steps" inside a wall-clock-limited
batch allocation) live and die by restart files.  This module provides a
compact ``.npz``-based checkpoint containing the spectral velocity (and any
passive scalars), the solver clock, and enough metadata to validate that a
restart matches the run that wrote it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.spectral.grid import SpectralGrid
from repro.spectral.scalar import ScalarMixingSolver
from repro.spectral.solver import NavierStokesSolver, SolverConfig

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint"]

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is malformed or incompatible."""


def _config_metadata(config: SolverConfig) -> dict:
    meta = asdict(config)
    meta["dealias"] = config.dealias.value
    return meta


def save_checkpoint(
    path: Union[str, Path],
    solver: Union[NavierStokesSolver, ScalarMixingSolver],
) -> Path:
    """Write the solver state to ``path`` (``.npz``); returns the path.

    Works for both the plain and the scalar-mixing solver; scalars are
    stored alongside the velocity with their Schmidt numbers and mean
    gradients.
    """
    path = Path(path)
    if isinstance(solver, ScalarMixingSolver):
        flow = solver.flow
        scalars = solver.scalars
    else:
        flow = solver
        scalars = []

    arrays: dict[str, np.ndarray] = {"u_hat": flow.u_hat}
    scalar_meta = []
    for i, s in enumerate(scalars):
        arrays[f"theta_hat_{i}"] = s.theta_hat
        scalar_meta.append(
            {"schmidt": s.schmidt, "mean_gradient": s.mean_gradient}
        )

    header = {
        "format_version": _FORMAT_VERSION,
        "n": flow.grid.n,
        "length": flow.grid.length,
        "dtype": flow.grid.dtype.name,
        "time": flow.time,
        "step_count": flow.step_count,
        "config": _config_metadata(flow.config),
        "scalars": scalar_meta,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    return path


def _read_header(data) -> dict:
    if "header" not in data:
        raise CheckpointError("not a repro checkpoint (missing header)")
    try:
        return json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc


def load_checkpoint(
    path: Union[str, Path],
    grid: Optional[SpectralGrid] = None,
    with_scalars: bool = False,
) -> Union[NavierStokesSolver, ScalarMixingSolver]:
    """Reconstruct a solver from a checkpoint.

    Parameters
    ----------
    grid:
        Optional pre-built grid; must match the checkpoint's N / domain
        length / dtype (validated).  Built from the header if omitted.
    with_scalars:
        Return a :class:`ScalarMixingSolver` (required if the checkpoint
        contains scalars; optional otherwise).
    """
    path = Path(path)
    with np.load(path) as data:
        header = _read_header(data)
        if header.get("format_version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('format_version')}"
            )
        if grid is None:
            grid = SpectralGrid(
                header["n"], length=header["length"], dtype=np.dtype(header["dtype"])
            )
        else:
            if (
                grid.n != header["n"]
                or abs(grid.length - header["length"]) > 1e-12
                or grid.dtype.name != header["dtype"]
            ):
                raise CheckpointError(
                    f"grid mismatch: checkpoint is N={header['n']} "
                    f"L={header['length']:.6g} {header['dtype']}"
                )

        # Keep only the options SolverConfig still has: checkpoints written
        # by older versions carry options that have since been retired.
        known = {f.name for f in fields(SolverConfig)}
        cfg_meta = {k: v for k, v in header["config"].items() if k in known}
        from repro.spectral.dealias import DealiasRule

        cfg_meta["dealias"] = DealiasRule(cfg_meta["dealias"])
        config = SolverConfig(**cfg_meta)

        u_hat = data["u_hat"]
        scalar_meta = header.get("scalars", [])
        if scalar_meta and not with_scalars:
            raise CheckpointError(
                "checkpoint contains passive scalars; pass with_scalars=True"
            )

        if with_scalars:
            solver = ScalarMixingSolver(grid, u_hat, config)
            flow = solver.flow
            for i, meta in enumerate(scalar_meta):
                solver.add_scalar(
                    data[f"theta_hat_{i}"],
                    schmidt=meta["schmidt"],
                    mean_gradient=meta["mean_gradient"],
                )
                # Bit-exact restart: bypass the constructor's re-masking.
                solver.scalars[i].theta_hat = np.array(
                    data[f"theta_hat_{i}"], copy=True
                )
        else:
            solver = NavierStokesSolver(grid, u_hat, config)
            flow = solver

        # The constructor re-applies mask + projection, which perturbs the
        # state at round-off; restarts must be bit-exact, so restore the
        # stored coefficients verbatim (they were saved already projected).
        flow.u_hat = np.array(u_hat, dtype=grid.cdtype, copy=True)
        flow.time = header["time"]
        flow.step_count = header["step_count"]
        return solver
