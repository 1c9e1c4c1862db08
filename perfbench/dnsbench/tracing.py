"""Spans around calls into each layer, recorded from the benchmark's files.

The traced run installs wrappers on the public functions of each layer
(``SpectralWorkspace.fft3d``, ``numpy.fft.*``, ``pack_blocks``, the copy
engines, ``PencilPipeline.run``, ...) for one step, then removes them, so
the untraced steps and every timed run execute the program unmodified.

A span is ``(id, parent, layer, label, t0, t1, step, nbytes)``.  The parent
of a span opened on a thread with no open span of its own (a pipeline stream
worker) is the ``PencilPipeline.run`` span that submitted it.  Spans stay in
memory; :func:`layer_metrics` turns them into per-step layer figures.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

FIELDS = ("id", "parent", "layer", "label", "t0", "t1", "step", "nbytes")

#: Per-layer metrics, each with its unit (the names BENCHMARK.json lists).
PER_LAYER_UNITS = {
    "spectral.fft3d_s": "s",
    "spectral.fft3d_calls": "count",
    "spectral.fft3d_floor_x": "ratio",
    "spectral.solver_self_s": "s",
    "dist.transform_s": "s",
    "dist.transform_calls": "count",
    "dist.solver_self_s": "s",
    "solver.step_alloc_peak_mb": "MiB",
    "fft.line_s": "s",
    "fft.line_calls": "count",
    "fft.line_floor_x": "ratio",
    "transpose.pack_s": "s",
    "transpose.pack_calls": "count",
    "transpose.pack_bytes": "B",
    "transpose.pack_gbps": "GB/s",
    "comm.a2a_s": "s",
    "comm.a2a_calls": "count",
    "comm.a2a_bytes": "B",
    "comm.messages": "count",
    "copy.s": "s",
    "copy.calls": "count",
    "copy.bytes": "B",
    "copy.gbps": "GB/s",
    "copy.floor_x": "ratio",
    "copy.autotune_calls": "count",
    "copy.autotune_s": "s",
    "arena.high_water_mb": "MiB",
    "pipeline.run_s": "s",
    "pipeline.runs": "count",
    "pipeline.self_s": "s",
    "pipeline.overlap": "ratio",
    "procs.transpose_s": "s",
    "procs.transpose_calls": "count",
    "procs.worker_cpu_s": "s",
    "procs.worker_busy_share": "ratio",
    "procs.shm_bytes": "B",
    "floor.fft_s": "s",
    "floor.copy_gbps": "GB/s",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


def _arg(i):
    return lambda args, result: args[i].nbytes


def _targets():
    """``(layer, owner, attribute, nbytes)`` for every wrapped entry point.

    ``nbytes(args, result)`` gives the bytes a call moves, computed from
    array sizes.  Class attributes are patched on the class that defines
    them: ``CopyEngine.h2d`` covers the concrete engines but not
    ``AutoEngine``, which overrides it and delegates, so no copy counts
    twice.
    """
    import numpy
    from repro.cuda.copyengine import CopyAutotuner, CopyEngine
    from repro.dist import transpose
    from repro.dist.virtual_mpi import PendingAlltoall, VirtualComm
    from repro.exec.pipeline import PencilPipeline
    from repro.mpi.procs import ProcsComm
    from repro.spectral.workspace import LineTransforms, SpectralWorkspace

    lines = ("fft", "ifft", "rfft", "irfft")
    return [
        ("spectral.fft3d", SpectralWorkspace, "fft3d", None),
        ("spectral.fft3d", SpectralWorkspace, "ifft3d", None),
        *[("fft.line", numpy.fft, f, None) for f in lines],
        *[("fft.line", LineTransforms, f, None) for f in lines],
        ("transpose.pack", transpose, "pack_blocks", _arg(0)),
        ("transpose.pack", transpose, "unpack_blocks",
         lambda args, result: result.nbytes),
        ("comm.a2a", VirtualComm, "alltoall", None),
        ("comm.a2a", VirtualComm, "ialltoall", None),
        ("comm.a2a", PendingAlltoall, "wait", None),
        ("copy", CopyEngine, "h2d", _arg(1)),
        ("copy", CopyEngine, "d2h", _arg(1)),
        ("copy.autotune", CopyAutotuner, "choose", None),
        ("pipeline.run", PencilPipeline, "run", None),
        ("procs.transpose", ProcsComm, "rank_transpose",
         lambda args, result: sum(a.nbytes for a in args[1])
         + sum(o.nbytes for o in result)),
    ]


#: Entry points that add time to their layer but are not calls of it
#: (``PendingAlltoall.wait`` completes an exchange ``ialltoall`` posted).
_NOT_A_CALL = {"PendingAlltoall.wait"}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.step = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter = None
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself (the step root)."""
        stack = self._stack()
        parent = stack[-1] if stack else self._adopter
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, layer, layer, t0, t1, self.step, 0))

    def _wrap(self, layer: str, label: str, fn, nbytes):
        tracer = self
        adopts = layer == "pipeline.run"

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._adopter
            sid = next(tracer._ids)
            stack.append(sid)
            if adopts:
                outer, tracer._adopter = tracer._adopter, sid
            t0 = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if adopts:
                    tracer._adopter = outer
                size = nbytes(args, result) if nbytes and done else 0
                tracer.spans.append(
                    (sid, parent, layer, label, t0, t1, tracer.step, size)
                )

        return wrapper

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self, solver) -> None:
        """Wrap every layer entry point, and ``solver.fft``'s transforms."""
        if self._undo:
            raise RuntimeError("wrappers are already installed")
        for layer, owner, attr, nbytes in _targets():
            raw = vars(owner)[attr]
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            setattr(owner, attr, self._wrap(layer, label, raw, nbytes))
            self._undo.append((owner, attr, raw))
        fft = getattr(solver, "fft", None)
        if fft is not None:
            for attr in ("inverse", "forward"):
                bound = getattr(fft, attr)
                label = f"{type(fft).__name__}.{attr}"
                setattr(fft, attr, self._wrap("dist.transform", label, bound, None))
                self._undo.append((fft, attr, None))

    def uninstall(self) -> None:
        """Restore every patched attribute (instance patches are deleted)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def dump(self) -> dict:
        return {"fields": list(FIELDS), "spans": [list(s) for s in self.spans]}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans, nsteps: int, floor_fft_s: float,
                  floor_copy_bps: float) -> tuple[dict, dict]:
    """Per-step layer figures from traced steps' spans.

    Returns ``(values, info)``: ``values`` maps the span-derived names of
    :data:`PER_LAYER_UNITS` to numbers, ``info`` holds the call counts per
    entry point (which FFT implementation each layer ran) and layer call
    totals used to mark layers that did not run.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)

    def outermost(s) -> bool:
        p = by_id.get(s[1])
        while p is not None:
            if p[2] == s[2]:
                return False
            p = by_id.get(p[1])
        return True

    dur = defaultdict(float)
    calls = Counter()
    nbytes = Counter()
    labels = Counter()
    for s in spans:
        if s[2] == "step" or not outermost(s):
            continue
        layer = s[2]
        dur[layer] += s[5] - s[4]
        nbytes[layer] += s[7]
        labels[s[3]] += 1
        if s[3] not in _NOT_A_CALL:
            calls[layer] += 1

    def self_time(s) -> float:
        kids = [(c[4], c[5]) for c in children.get(s[0], ())]
        return (s[5] - s[4]) - _covered(kids, s[4], s[5])

    roots = [s for s in spans if s[2] == "step"]
    step_wall = sum(s[5] - s[4] for s in roots)
    unattributed = sum(self_time(s) for s in roots)
    # The step minus its direct transform children (serial: fft3d; dist:
    # the distributed transforms) is the solver's own arithmetic.
    solver_self = 0.0
    for s in roots:
        kids = children.get(s[0], ())
        solver_self += (s[5] - s[4]) - sum(
            c[5] - c[4] for c in kids if c[2] in ("spectral.fft3d", "dist.transform")
        )
    runs = [s for s in spans if s[2] == "pipeline.run"]
    run_wall = sum(s[5] - s[4] for s in runs)
    run_busy = sum(
        c[5] - c[4] for s in runs for c in children.get(s[0], ())
    )

    per = 1.0 / nsteps
    copy_bytes = nbytes["copy"]
    v = {
        "spectral.fft3d_s": dur["spectral.fft3d"] * per,
        "spectral.fft3d_calls": calls["spectral.fft3d"] * per,
        "spectral.fft3d_floor_x": dur["spectral.fft3d"] * per / floor_fft_s,
        "spectral.solver_self_s": solver_self * per,
        "dist.transform_s": dur["dist.transform"] * per,
        "dist.transform_calls": calls["dist.transform"] * per,
        "dist.solver_self_s": solver_self * per,
        "fft.line_s": dur["fft.line"] * per,
        "fft.line_calls": calls["fft.line"] * per,
        "fft.line_floor_x": dur["fft.line"] * per / floor_fft_s,
        "transpose.pack_s": dur["transpose.pack"] * per,
        "transpose.pack_calls": calls["transpose.pack"] * per,
        "transpose.pack_bytes": nbytes["transpose.pack"] * per,
        "transpose.pack_gbps": _rate(nbytes["transpose.pack"], dur["transpose.pack"]),
        "comm.a2a_s": dur["comm.a2a"] * per,
        "comm.a2a_calls": calls["comm.a2a"] * per,
        "copy.s": dur["copy"] * per,
        "copy.calls": calls["copy"] * per,
        "copy.bytes": copy_bytes * per,
        "copy.gbps": _rate(copy_bytes, dur["copy"]),
        "copy.floor_x": (
            dur["copy"] / (copy_bytes / floor_copy_bps) if copy_bytes else 0.0
        ),
        "copy.autotune_calls": calls["copy.autotune"] * per,
        "copy.autotune_s": dur["copy.autotune"] * per,
        "pipeline.run_s": run_wall * per,
        "pipeline.runs": len(runs) * per,
        "pipeline.self_s": sum(self_time(s) for s in runs) * per,
        "pipeline.overlap": run_busy / run_wall if run_wall else 0.0,
        "procs.transpose_s": dur["procs.transpose"] * per,
        "procs.transpose_calls": calls["procs.transpose"] * per,
        "trace.coverage": 1.0 - unattributed / step_wall,
        "trace.unattributed_s": unattributed * per,
    }
    info = {
        "calls_by_entry_point": dict(sorted(labels.items())),
        "layer_calls": dict(calls),
        "procs_io_bytes": nbytes["procs.transpose"] * per,
    }
    return v, info


def _rate(nbytes: float, seconds: float) -> float:
    """GB/s, or 0 for a layer that moved nothing."""
    return nbytes / seconds / 1e9 if seconds > 0 else 0.0
