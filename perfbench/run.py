#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serial --seed 1 --seconds 24 --trace 0

Workloads: serial, slab, pencil-async, procs (see BENCHMARK.json).  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose spans
are written to ``.perfbench/``.  The line before it holds the provenance,
the output check and the run's details.  Exit status: 0 when the outputs
check out, 1 when they do not, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serial", "slab", "pencil-async", "procs")


def _children() -> list[int]:
    """Pids of this process's live children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry.name))
    return pids


def _stop_children(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    ``ProcsComm.close`` joins the procs workload's rank workers, but the
    shared-memory resource tracker started for them only ends once its
    pipe closes, which would be after this process has exited; it is
    stopped here.  Anything else still alive gets SIGTERM, then SIGKILL.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        rt = tracker._resource_tracker
        stop = getattr(rt, "_stop", None)
        if stop is not None:
            stop()
        elif getattr(rt, "_fd", None) is not None:
            os.close(rt._fd)
            rt._fd = None
            os.waitpid(rt._pid, 0)
            rt._pid = None
    pids = _children()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            if pids:
                time.sleep(0.05)
        if not pids:
            return
    print(f"error: child processes {pids} did not end", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # The workloads pin every backend choice; no REPRO_* setting (the FFT
    # backend, the procs start method, ...) may change what runs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]
    from dnsbench.bench import run_workload

    spans = None
    if args.trace:
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, trace=bool(args.trace),
            spans_path=spans,
        )
    finally:
        _stop_children()
    print(json.dumps(result.details))
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
