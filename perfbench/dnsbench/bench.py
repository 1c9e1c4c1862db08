"""The four workloads, their same-box floors, the timed loop and the checks.

Load shape: a closed loop with one caller.  One process builds one solver
and calls ``step(dt)`` back to back with a fixed ``dt = 0.25 dx``; after
every step it times the floor (the 18 full-grid 3-D real FFTs one RK2 step
needs, bare ``numpy.fft`` on the same shape), and each step is divided by
the mean of the floors timed just before and just after it on the same box.
The seed generates the initial field and the phase-shift seed; the FFT
backend is pinned to ``numpy``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from dnsbench.tracing import PER_LAYER_UNITS, Tracer, layer_metrics

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.mpi.procs import make_comm
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field
from repro.spectral.solver import NavierStokesSolver, SolverConfig
from repro.spectral.workspace import resolve_line_fft

ROOT = Path(__file__).resolve().parents[2]

NU = 0.02
#: Initial kinetic energy.  At dt = 0.25 dx and E = 1 Heun's method goes
#: unstable within 30 steps on some seeds (e.g. 4); E = 0.5 stays stable on
#: the fastest initial fields of seeds 0-199.
ENERGY = 0.5
#: A timed run is this many segments, each with a fresh solver whose
#: set-up is timed: set-up time is their median, and it follows the shared
#: machine's speed over the whole run rather than over its first second.
SEGMENTS = 5
#: Virtual ranks and pencils of the distributed in-process workloads; the
#: copy floor uses their slab and pencil shapes.
RANKS, PENCILS = 4, 4
#: The distributed state must match the serial solver to round-off
#: (reassociation only, ~1e-13 observed).
STATE_RTOL = 1e-10
#: Energy budget of the unforced serial run: dE/dt = -eps per step and over
#: the run.  Heun's O(dt^2) error and the aliasing left by phase shifting
#: plus truncation stay near 0.4% per step and 0.15% in total at 64^3.
BUDGET_STEP_TOL = 0.02
BUDGET_TOTAL_TOL = 0.01

END_TO_END_UNITS = {
    "step_floor_x": "ratio",
    "step_tail_floor_x": "ratio",
    "cpu_floor_x": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[SpectralGrid, np.ndarray, SolverConfig], object]


def _serial(grid, u0, cfg):
    return NavierStokesSolver(grid, u0, cfg)


def _slab(grid, u0, cfg):
    return DistributedNavierStokesSolver(grid, VirtualComm(RANKS), u0, cfg)


def _pencil_async(grid, u0, cfg):
    return DistributedNavierStokesSolver(
        grid, VirtualComm(RANKS), u0, cfg, npencils=PENCILS,
        pipeline="threads", inflight=3, copy_strategy="auto",
    )


def _procs(grid, u0, cfg):
    comm = make_comm("procs", 2, fft_backend="numpy")
    try:
        return DistributedNavierStokesSolver(grid, comm, u0, cfg)
    except BaseException:
        comm.close()
        raise


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serial",
            "single-process workspace solver: spectral FFTs, products and the "
            "RK update only; never touches dist, mpi, copy engines or exec",
            _serial,
        ),
        Workload(
            "slab",
            "1-D slab decomposition over VirtualComm(4): line FFTs, "
            "pack/unpack, one bulk alltoall per transpose; no copy engines, "
            "rings or pipeline",
            _slab,
        ),
        Workload(
            "pencil-async",
            "the Fig. 4 batched asynchronous out-of-core transform: threads "
            "pipeline, 4 pencils, inflight 3, autotuned copy engines, "
            "chunked ialltoall",
            _pencil_async,
        ),
        Workload(
            "procs",
            "the slab transform fused into 2 rank processes over shared "
            "memory; the only workload with real parallelism",
            _procs,
        ),
    )
}


def _close(solver) -> None:
    """Stop the solver's stream threads and its rank processes."""
    for obj in (solver, getattr(solver, "comm", None)):
        close = getattr(obj, "close", None)
        if close is not None:
            close()


def _state(solver) -> np.ndarray:
    gather = getattr(solver, "gather_state", None)
    return np.array(gather() if gather is not None else solver.u_hat)


# -- floors ----------------------------------------------------------------


class Floors:
    """Same-box floors: bare 3-D FFTs and ``np.copyto`` bandwidth.

    ``fft()`` times the 18 full-grid 3-D real transforms of one RK2 step
    (12 ``rfftn`` + 6 ``irfftn``: per RHS evaluation 3 inverse and 6
    forward).  ``copy()`` moves the distributed workloads' per-rank slab
    and x-pencil shapes between contiguous arrays and returns bytes/s.
    """

    def __init__(self, grid: SpectralGrid, rng: np.random.Generator):
        n = grid.n
        self.shape = (n, n, n)
        self.real = rng.standard_normal(self.shape)
        self.spec = np.fft.rfftn(self.real)
        nxh = n // 2 + 1
        slab = (n // RANKS, n, nxh)
        pencil = (n // RANKS, n, math.ceil(nxh / PENCILS))
        self.copies = [
            (np.empty(s, complex), rng.standard_normal(s) + 0j)
            for s in (slab, slab, pencil, pencil, pencil, pencil)
        ]
        self.copy_bytes = sum(src.nbytes for _, src in self.copies)

    def fft(self) -> float:
        t0 = time.perf_counter()
        for _ in range(12):
            np.fft.rfftn(self.real)
        for _ in range(6):
            np.fft.irfftn(self.spec, s=self.shape, axes=(0, 1, 2))
        return time.perf_counter() - t0

    def copy(self) -> float:
        t0 = time.perf_counter()
        for dst, src in self.copies:
            np.copyto(dst, src)
        return self.copy_bytes / (time.perf_counter() - t0)


# -- process accounting ------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _worker_cpu(comm) -> float:
    """CPU seconds of the rank worker processes (0 without workers)."""
    pids = getattr(comm, "worker_pids", None)
    if not pids:
        return 0.0
    try:
        total = 0.0
        for pid in pids:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
        return total
    except OSError:
        return float(sum(comm.live_worker_cpu_seconds()))


def _peak_rss_mb(comm) -> float:
    """Peak resident memory of this process plus the rank workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in getattr(comm, "worker_pids", None) or ():
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


# -- checks ----------------------------------------------------------------


def check_energy_budget(results, dt: float) -> dict:
    """dE/dt against -eps (trapezoidal) per step and over the run."""
    e = np.array([r.energy for r in results])
    eps = np.array([r.dissipation for r in results])
    if len(e) < 2 or not (np.all(np.isfinite(e)) and np.all(np.isfinite(eps))):
        return {"ok": False, "reason": "too few steps or non-finite energy"}
    predicted = -0.5 * (eps[1:] + eps[:-1]) * dt
    step_res = np.abs(np.diff(e) - predicted) / np.abs(predicted)
    total_res = abs((e[-1] - e[0]) - predicted.sum()) / abs(predicted.sum())
    ok = bool(step_res.max() <= BUDGET_STEP_TOL and total_res <= BUDGET_TOTAL_TOL)
    return {
        "ok": ok,
        "kind": "energy budget",
        "max_step_residual": float(step_res.max()),
        "total_residual": float(total_res),
    }


def check_against_serial(finals, grid, u0, cfg, dt) -> list[dict]:
    """Final spectral states against one serial trajectory.

    ``finals`` holds ``(nsteps, state)`` per segment; the serial solver is
    advanced once to the longest segment and compared on the way.
    """
    ref = NavierStokesSolver(grid, u0, cfg)
    wanted = {nsteps for nsteps, _ in finals}
    at = {}
    for k in range(1, max(wanted) + 1):
        ref.step(dt)
        if k in wanted:
            at[k] = ref.u_hat.copy()
    checks = []
    for nsteps, state in finals:
        want = at[nsteps]
        err = float(np.max(np.abs(state - want)) / np.max(np.abs(want)))
        checks.append({
            "ok": bool(np.isfinite(err) and err <= STATE_RTOL),
            "kind": "state vs serial",
            "steps": nsteps,
            "max_rel_error": err,
        })
    return checks


# -- provenance ----------------------------------------------------------------


def fft_implementation(solver) -> str:
    """The FFT code each layer of this solver actually runs."""
    ws = getattr(solver, "workspace", None)
    if ws is not None:
        return f"spectral: {type(ws.backend).__name__} ({ws.backend.name})"
    fft = solver.fft
    if isinstance(fft, OutOfCoreSlabFFT):
        return (
            "dist: numpy.fft called directly by the OutOfCoreSlabFFT stages, "
            "which ignore fft_backend"
        )
    line = type(resolve_line_fft(fft.fft_backend)).__name__
    if getattr(solver.comm, "rank_transpose", None) is not None:
        return f"dist: {line} ({fft.fft_backend}) inside the rank workers"
    return f"dist: {line} ({fft.fft_backend})"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    """Digest of the program's source files (the checkout has no git)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, grid: SpectralGrid, dt: float,
               solver) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "grid": grid.n,
        "scheme": "rk2",
        "nu": NU,
        "dt": dt,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "fft_implementation": fft_implementation(solver),
        "floor": "numpy.fft.rfftn x12 + irfftn x6; np.copyto on slab/pencil shapes",
    }


# -- the run -----------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    details: dict
    final_state: np.ndarray = field(repr=False)

    def summary(self) -> dict:
        """The benchmark's result line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _tail(values) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def _metrics(values: dict, units: dict) -> dict:
    return {m: {"value": float(values[m]), "unit": u} for m, u in units.items()}


class Sample(NamedTuple):
    """One loop step: its wall and CPU time and the floors around it."""

    traced: bool
    step_s: float
    floor_s: float  # mean of the FFT floors timed just before and after
    cpu_s: float  # main process (all threads) plus rank workers
    copy_bps: float


@dataclass
class Traffic:
    """Exchange records and worker CPU seen during the traced steps."""

    a2a_bytes: int = 0
    messages: int = 0
    records: int = 0
    worker_cpu_s: float = 0.0


def _setup(workload, grid, u0, cfg, dt):
    """Build a solver and take its first step; returns the wall time too."""
    t0 = time.perf_counter()
    solver = workload.build(grid, u0, cfg)
    first = solver.step(dt)
    return solver, first, time.perf_counter() - t0


def _loop(solver, floors, dt, seconds, steps, tracer, results, samples, traffic):
    """Step back to back, timing the floor after every step.

    Runs for ``seconds`` (at least 2 steps) or exactly ``steps`` steps,
    appending to ``results`` and ``samples``.  With a ``tracer`` every
    second step runs with the wrappers installed and adds to ``traffic``.
    """
    comm = getattr(solver, "comm", None)
    records = comm.stats.records if comm is not None else []
    floor_before = floors.fft()
    deadline = time.perf_counter() + seconds
    k = 0
    while (k < steps) if steps is not None else (
        k < 2 or time.perf_counter() < deadline
    ):
        traced = tracer is not None and k % 2 == 1
        w0 = _worker_cpu(comm)
        nrec = len(records)
        if traced:
            tracer.step = k
            tracer.install(solver)
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            if traced:
                with tracer.span("step"):
                    results.append(solver.step(dt))
            else:
                results.append(solver.step(dt))
            t1 = time.perf_counter()
            c1 = time.process_time()
        finally:
            if traced:
                tracer.uninstall()
        w1 = _worker_cpu(comm)
        if traced:
            traffic.worker_cpu_s += w1 - w0
            for rec in records[nrec:]:
                if rec.kind in ("alltoall", "ialltoall"):
                    traffic.a2a_bytes += rec.total_bytes
                    traffic.messages += rec.messages
                    traffic.records += 1
        floor_after = floors.fft()
        samples.append(Sample(
            traced, t1 - t0, 0.5 * (floor_before + floor_after),
            (c1 - c0) + (w1 - w0), floors.copy(),
        ))
        floor_before = floor_after
        k += 1


def _alloc_peak_mb(solver, dt, results) -> float:
    """Peak bytes newly allocated during one step, from tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results.append(solver.step(dt))
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _end_to_end(samples, setups, peak_rss) -> tuple[dict, dict]:
    ratios = [s.step_s / s.floor_s for s in samples]
    tail, pct = _tail(ratios)
    values = {
        "step_floor_x": statistics.median(ratios),
        "step_tail_floor_x": tail,
        "cpu_floor_x": sum(s.cpu_s for s in samples)
        / sum(s.floor_s for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
    }
    # Raw seconds per step follow the shared machine's speed (27% IQR over
    # ten runs of serial), wider than any gate's bound: reported, not gated.
    step_s = statistics.median(s.step_s for s in samples)
    return _metrics(values, END_TO_END_UNITS), {
        "step_s": {"value": step_s, "unit": "s"},
        "tail_percentile": pct,
        "setups_s": setups,
    }


def _per_layer(samples, tracer, traffic, alloc_peak, arena, ranks):
    traced = [s for s in samples if s.traced]
    nt = len(traced)
    floor_fft = statistics.median(s.floor_s for s in samples)
    floor_copy = statistics.median(s.copy_bps for s in samples)
    values, info = layer_metrics(tracer.spans, nt, floor_fft, floor_copy)
    transpose_s = values["procs.transpose_s"]
    values.update({
        "solver.step_alloc_peak_mb": alloc_peak,
        "comm.a2a_bytes": traffic.a2a_bytes / nt,
        "comm.messages": traffic.messages / nt,
        "arena.high_water_mb": arena.high_water / 2**20 if arena else 0.0,
        "procs.worker_cpu_s": traffic.worker_cpu_s / nt,
        "procs.worker_busy_share": (
            traffic.worker_cpu_s / nt / (ranks * transpose_s)
            if ranks and transpose_s else 0.0
        ),
        # Into the rank segments, through the rings, and back out.
        "procs.shm_bytes": info["procs_io_bytes"]
        + (traffic.a2a_bytes / nt if ranks else 0.0),
        "floor.fft_s": floor_fft,
        "floor.copy_gbps": floor_copy / 1e9,
        "trace.overhead": statistics.median(s.step_s / s.floor_s for s in traced)
        / statistics.median(s.step_s / s.floor_s for s in samples if not s.traced)
        - 1.0,
    })
    layer_calls = dict(info["layer_calls"])
    layer_calls["comm.records"] = traffic.records
    layer_calls["arena"] = int(arena is not None)
    na = sorted(
        m for m in PER_LAYER_UNITS
        if _gate(m) is not None and not layer_calls.get(_gate(m), 0)
    )
    for m in na:
        values[m] = 0.0
    return _metrics(values, PER_LAYER_UNITS), {
        "na": na,
        "traced_steps": nt,
        "calls_by_entry_point": info["calls_by_entry_point"],
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    n: int = 64,
    steps: int | None = None,
    spans_path: Path | None = None,
) -> RunResult:
    """One benchmark run.

    A timed run is :data:`SEGMENTS` segments of ``seconds / SEGMENTS``:
    each builds a fresh solver from the same initial field (timing its
    set-up), steps it and closes it, so only one solver is alive at a time;
    every segment's output is checked at the end.  With ``trace`` the run is one segment in which
    every second step runs with the layer wrappers installed, and the
    result carries the per-layer metrics instead of the end-to-end ones;
    the spans are written to ``spans_path`` when given.  With ``steps``
    each segment runs exactly that many loop steps.
    """
    workload = WORKLOADS[name]
    grid = SpectralGrid(n)
    rng = np.random.default_rng(seed)
    u0 = random_isotropic_field(grid, rng, energy=ENERGY)
    cfg = SolverConfig(nu=NU, scheme="rk2", seed=seed, fft_backend="numpy")
    dt = 0.25 * grid.dx
    floors = Floors(grid, rng)

    segments = 1 if trace else SEGMENTS
    tracer = Tracer() if trace else None
    setups, samples, ends, traffic = [], [], [], Traffic()
    prov = None
    for _ in range(segments):
        solver, first, setup_s = _setup(workload, grid, u0, cfg, dt)
        setups.append(setup_s)
        results = [first]
        comm = getattr(solver, "comm", None)
        try:
            _loop(solver, floors, dt, seconds / segments, steps, tracer,
                  results, samples, traffic)
            if not ends:  # later segments reuse memory freed by earlier ones
                peak_rss = _peak_rss_mb(comm)
            if trace:
                alloc_peak = _alloc_peak_mb(solver, dt, results)
                arena = getattr(getattr(solver, "fft", None), "arena", None)
                ranks = len(getattr(comm, "worker_pids", ()))
            if prov is None:
                prov = provenance(name, seed, grid, dt, solver)
            final_state = _state(solver)
        finally:
            _close(solver)
        del solver, comm  # freed before the next segment's set-up
        gc.collect()
        ends.append((results, final_state))

    # Checked last: the state check's reference solver is not part of the
    # measured program.
    if name == "serial":
        checks = [check_energy_budget(results, dt) for results, _ in ends]
    else:
        checks = check_against_serial(
            [(len(results), state) for results, state in ends], grid, u0, cfg, dt
        )
    attempted = sum(len(results) for results, _ in ends)
    correct = all(c["ok"] for c in checks)
    details = {"provenance": prov, "checks": checks, "loop_steps": len(samples)}
    if trace:
        metrics, more = _per_layer(samples, tracer, traffic, alloc_peak, arena, ranks)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(tracer.dump()))
            more["spans"] = str(spans_path)
    else:
        metrics, more = _end_to_end(samples, setups, peak_rss)
    details.update(more)
    return RunResult(
        correct=correct,
        attempted=attempted,
        failed=0 if correct else attempted,
        metrics=metrics,
        details=details,
        final_state=final_state,
    )


#: The call count that decides whether a per-layer metric's layer ran.
_GATES = {
    "spectral.": "spectral.fft3d",
    "dist.": "dist.transform",
    "fft.": "fft.line",
    "transpose.": "transpose.pack",
    "comm.a2a_s": "comm.a2a",
    "comm.a2a_calls": "comm.a2a",
    "comm.": "comm.records",
    "copy.autotune": "copy.autotune",
    "copy.": "copy",
    "arena.": "arena",
    "pipeline.": "pipeline.run",
    "procs.": "procs.transpose",
}


def _gate(metric: str):
    for prefix, layer in _GATES.items():
        if metric.startswith(prefix):
            return layer
    return None
