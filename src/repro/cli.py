"""Command-line interface: ``python -m repro <command>``.

Subcommands expose the reproduction's main entry points:

===============  ==========================================================
``plan``         memory planning for a problem size (Table 1 / Sec. 3.5)
``autotune``     rank the MPI configurations for one operating point
``step``         simulate one DNS step of a chosen configuration
``dns``          run the *real* solver at laptop scale, printing statistics
``table1-4``     regenerate a paper table with paper-vs-model errors
``fig7-10``      regenerate a paper figure
``projection``   the exascale what-if study
``verify``       fuzz + schedule-exploration verification of the pipeline
``tune``         probe the strided-copy engines on real pencil layouts
``serve``        multi-tenant job service: queue, schedule, and run jobs
``obs``          run registry, live event tail, and the perf-regression gate
===============  ==========================================================

Every ``dns`` / ``verify`` / ``tune`` invocation registers itself under
``.repro/runs/<run_id>/`` (override with ``$REPRO_RUNS_DIR``): a manifest
with git sha / config / seeds / artifact paths, the run's event stream, and
any flight-recorder post-mortems.  ``repro obs report`` lists them,
``repro obs tail`` follows the latest, and ``repro obs diff`` compares two
metrics / bench artifacts with a regression threshold (non-zero exit on
regression — the CI gate).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'19 asynchronous GPU pseudo-spectral DNS reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "plan",
        help="memory planning and capacity quotes (Table 1 / Sec. 3.5)",
    )
    p.add_argument("n", type=int, nargs="?", default=None,
                   help="linear problem size N")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--machine", default="summit",
                   choices=("summit", "titan", "sierra", "exascale"))
    p.add_argument("--tasks-per-node", type=int, default=6)
    p.add_argument("--q", default="1",
                   help="pencils per all-to-all, or 'slab' (case C)")
    p.add_argument("--copy-strategy", default="memcpy2d",
                   choices=("per_chunk", "memcpy2d", "zero_copy", "auto"))
    p.add_argument("--quote", action="store_true",
                   help="price the configuration (registered run)")
    p.add_argument("--sweep", action="store_true",
                   help="sweep grids x copy strategies; write a bench JSON")
    p.add_argument("--grids", type=int, nargs="*", default=None,
                   help="sweep grid sizes (default: the Table 1 ladder)")
    p.add_argument("--strategies", nargs="*", default=None,
                   help="sweep copy strategies (default: memcpy2d)")
    p.add_argument("--out", default="BENCH_capacity.json",
                   help="sweep output path")
    p.add_argument("--validate", action="store_true",
                   help="payload-vs-metadata parity matrix (exit 1 on drift)")

    p = sub.add_parser("autotune", help="rank MPI configurations")
    p.add_argument("n", type=int)
    p.add_argument("nodes", type=int)

    p = sub.add_parser("step", help="simulate one DNS step")
    p.add_argument("n", type=int)
    p.add_argument("nodes", type=int)
    p.add_argument("--tasks-per-node", type=int, default=2)
    p.add_argument("--q", type=int, default=None,
                   help="pencils per all-to-all (default: whole slab)")
    p.add_argument("--algorithm", default="async_gpu",
                   choices=["async_gpu", "sync_gpu", "cpu_baseline", "mpi_only"])
    p.add_argument("--scheme", default="rk2", choices=["rk2", "rk4"])
    p.add_argument("--timeline", action="store_true",
                   help="print the activity timeline")
    p.add_argument("--chrome-trace", metavar="PATH", default=None,
                   help="write a chrome://tracing JSON file")

    p = sub.add_parser("dns", help="run the real solver at laptop scale")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--nu", type=float, default=0.02)
    p.add_argument("--forced", action="store_true")
    p.add_argument("--fft-backend", default="auto",
                   choices=["auto", "numpy", "scipy", "fftw"],
                   help="transform backend (auto: $REPRO_FFT_BACKEND or numpy)")
    p.add_argument("--diagnostics-every", type=int, default=1,
                   help="compute energy/dissipation every K steps (0: never)")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write a chrome://tracing JSON of the run's spans")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write per-step + end-of-run metrics as JSONL")
    p.add_argument("--report", action="store_true",
                   help="print an end-of-run per-phase wall-clock breakdown")
    p.add_argument("--ranks", type=int, default=None,
                   help="run the slab-distributed solver over this many "
                        "virtual ranks instead of the serial one")
    p.add_argument("--comm", default="virtual",
                   choices=["virtual", "procs", "mpi"],
                   help="with --ranks: communicator backend — in-process "
                        "virtual ranks (bit-exact reference), one worker "
                        "process per rank over shared memory, or mpi4py "
                        "when importable")
    p.add_argument("--npencils", type=int, default=None,
                   help="with --ranks: pencils per slab for the out-of-core "
                        "engine (default: whole-slab transforms)")
    p.add_argument("--pipeline", default="sync", choices=["sync", "threads"],
                   help="out-of-core execution backend: inline reference or "
                        "worker-thread streams with Fig. 4 overlap")
    p.add_argument("--inflight", type=int, default=3,
                   help="bounded in-flight pencil window (threads pipeline)")
    p.add_argument("--dt", type=float, default=None,
                   help="fixed time step for --ranks runs (default 0.25*dx)")
    p.add_argument("--fuzz", type=int, metavar="SEED", default=None,
                   help="with --ranks/--npencils: run under the fuzzing "
                        "backend with this seed (adversarial delays/faults; "
                        "the result must be bit-identical regardless)")
    p.add_argument("--fuzz-profile", default="chaos",
                   help="fuzz profile name for --fuzz "
                        "(calm|jittery|stormy|faulty|flaky-net|chaos)")
    p.add_argument("--copy-strategy", default="auto",
                   choices=["auto", "per_chunk", "memcpy2d", "zero_copy"],
                   help="with --npencils: host<->device strided-copy "
                        "strategy (Sec. 4.2 / Fig. 7); auto probes all "
                        "three on the first pencil of each layout")
    p.add_argument("--heights", default=None, metavar="H0,H1,...",
                   help="with --ranks: explicit per-rank slab heights "
                        "(uneven decomposition; must sum to N)")
    p.add_argument("--skew", type=float, default=None, metavar="X",
                   help="with --ranks: give rank 0 ~X times the fair slab "
                        "share (deterministic uneven partition)")
    p.add_argument("--dlb", default="off", choices=["off", "pinned", "lend"],
                   help="with --npencils: per-rank compute lanes — off "
                        "(single stream), pinned (one lane per rank), or "
                        "lend (DLB lend/reclaim of unstarted pencils; "
                        "bit-identical results either way)")

    p = sub.add_parser(
        "tune",
        help="probe the strided-copy engines on this run's pencil layouts",
    )
    p.add_argument("--n", type=int, default=32, help="grid size (default 32)")
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--npencils", type=int, default=4)
    p.add_argument("--pipeline", default="sync", choices=["sync", "threads"])
    p.add_argument("--inflight", type=int, default=3)
    p.add_argument("--no-model", dest="model", action="store_false",
                   help="skip the Fig. 7 analytic ranking of the same "
                        "layouts (the deterministic sim-backend choice)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the probe records as JSON")

    p = sub.add_parser(
        "verify",
        help="fuzz + schedule-exploration verification of the async pipeline",
    )
    p.add_argument("--n", type=int, default=16, help="grid size (default 16)")
    p.add_argument("--ranks", type=int, default=2)
    p.add_argument("--npencils", type=int, default=4)
    p.add_argument("--inflight", type=int, default=3)
    p.add_argument("--steps", type=int, default=1,
                   help="solver steps per fuzz case")
    p.add_argument("--seeds", default=None, metavar="S1,S2,...",
                   help="comma-separated fuzz seeds (default 101,202,303)")
    p.add_argument("--seed-base", type=int, default=None, metavar="B",
                   help="use seeds B,B+1,B+2 (e.g. a CI date stamp); "
                        "overridden by --seeds")
    p.add_argument("--profiles", default=None, metavar="P1,P2,...",
                   help="comma-separated profile names "
                        "(default calm,jittery,stormy,faulty,flaky-net)")
    p.add_argument("--orders", type=int, default=8,
                   help="schedule-explorer replay orders to sample")
    p.add_argument("--watchdog", type=float, default=30.0,
                   help="per-case deadlock watchdog in seconds")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write per-case fault/verify metrics as JSONL")
    p.add_argument("--copy-strategy", default="memcpy2d",
                   choices=["auto", "per_chunk", "memcpy2d", "zero_copy"],
                   help="strided-copy engine used by every case (all "
                        "strategies must be bit-identical)")
    p.add_argument("--heights", default=None, metavar="H0,H1,...",
                   help="uneven per-rank slab heights for the whole matrix "
                        "(must sum to N)")
    p.add_argument("--dlb", default="off", choices=["off", "pinned", "lend"],
                   help="per-rank compute lanes for every fuzz case "
                        "(results must stay bit-identical)")
    p.add_argument("--scheduler", action="store_true",
                   help="instead of the pipeline fuzz matrix: conformance-"
                        "fuzz the serve scheduler (determinism, capacity, "
                        "fairness) over seeded random workloads")
    p.add_argument("--workloads", type=int, default=12,
                   help="with --scheduler: number of seeded workloads "
                        "(default 12; --seeds/--seed-base override)")

    p = sub.add_parser(
        "serve",
        help="multi-tenant DNS job service: queue, schedule, and run jobs",
    )
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    def _serve_common(q):
        q.add_argument("--root", default=None, metavar="DIR",
                       help="service state directory (default .repro/serve "
                            "or $REPRO_SERVE_DIR)")

    q = serve_sub.add_parser("submit", help="queue a job from a spec")
    _serve_common(q)
    q.add_argument("--spec", metavar="FILE", default=None,
                   help="JobSpec JSON file ('-' for stdin); inline flags "
                        "below override nothing when given")
    q.add_argument("--name", default=None, help="job name (required "
                                                "without --spec)")
    q.add_argument("--tenant", default="default")
    q.add_argument("--priority", type=int, default=0,
                   help="fair-share priority; weight doubles per step "
                        "(default 0)")
    q.add_argument("--n", type=int, default=24)
    q.add_argument("--steps", type=int, default=2)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--nu", type=float, default=0.02)
    q.add_argument("--scheme", default="rk2", choices=["rk2", "rk4"])
    q.add_argument("--ic", default="taylor-green",
                   choices=["taylor-green", "random"])
    q.add_argument("--ic-seed", type=int, default=0)
    q.add_argument("--ranks", type=int, default=None,
                   help="distributed run over this many virtual ranks")
    q.add_argument("--comm", default="virtual",
                   choices=["virtual", "procs", "mpi"])
    q.add_argument("--npencils", type=int, default=None,
                   help="out-of-core pencils per slab (enables the GPU "
                        "pipeline model)")
    q.add_argument("--pipeline", default="sync", choices=["sync", "threads"])
    q.add_argument("--inflight", type=int, default=3)
    q.add_argument("--copy-strategy", default="memcpy2d",
                   choices=["auto", "per_chunk", "memcpy2d", "zero_copy"])
    q.add_argument("--heights", default=None, metavar="H0,H1,...",
                   help="uneven per-rank slab heights (must sum to N)")
    q.add_argument("--skew", type=float, default=None,
                   help="geometric slab-height skew factor")
    q.add_argument("--dlb", default="off", choices=["off", "pinned", "lend"])
    q.add_argument("--fuzz", type=int, default=None, metavar="SEED",
                   dest="fuzz_seed", help="run under the fuzz backend")
    q.add_argument("--fuzz-profile", default="calm")
    q.add_argument("--quote", action="store_true",
                   help="print the admission quote after submitting")

    q = serve_sub.add_parser("status", help="one job's record")
    _serve_common(q)
    q.add_argument("job_id")

    q = serve_sub.add_parser("list", help="every job, oldest first")
    _serve_common(q)
    q.add_argument("--state", default=None,
                   help="only jobs in this state (PENDING|RUNNING|...)")

    q = serve_sub.add_parser("cancel", help="evict a queued/admitted job")
    _serve_common(q)
    q.add_argument("job_id")

    q = serve_sub.add_parser(
        "run-scheduler",
        help="reconcile, then pack and execute the queue deterministically",
    )
    _serve_common(q)
    q.add_argument("--seed", type=int, default=0,
                   help="scheduler tiebreak seed (default 0); same "
                        "(job set, seed, capacity) => same placement trace")
    q.add_argument("--device-bytes", type=float, default=None,
                   help="shared device arena capacity in bytes "
                        "(default 2 GiB)")
    q.add_argument("--max-jobs", type=int, default=4,
                   help="max concurrently running jobs (default 4)")
    q.add_argument("--plan-only", action="store_true",
                   help="write the placement trace without executing")

    q = serve_sub.add_parser("api", help="serve the HTTP JSON API")
    _serve_common(q)
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, default=8642)
    q.add_argument("--device-bytes", type=float, default=None)
    q.add_argument("--max-jobs", type=int, default=4)

    p = sub.add_parser(
        "obs",
        help="observability: saved-run registry, event tail, perf diff",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "report", help="list saved runs and their outcomes"
    )
    q.add_argument("--runs-dir", default=None, metavar="DIR",
                   help="registry root (default .repro/runs or "
                        "$REPRO_RUNS_DIR)")
    q.add_argument("--kind", default=None,
                   help="only runs of this kind (dns|verify|tune|...)")
    q.add_argument("--last", type=int, default=10,
                   help="show the most recent K runs (default 10)")

    q = obs_sub.add_parser(
        "tail", help="print (or follow) a run's recent events"
    )
    q.add_argument("run_id", nargs="?", default=None,
                   help="run to tail (default: the latest)")
    q.add_argument("--runs-dir", default=None, metavar="DIR")
    q.add_argument("--kind", default=None,
                   help="with no run_id: latest run of this kind")
    q.add_argument("--lines", type=int, default=20,
                   help="events to print (default 20)")
    q.add_argument("--follow", action="store_true",
                   help="keep streaming until the run finishes")

    q = obs_sub.add_parser(
        "diff",
        help="thresholded perf comparison; exits non-zero on regression",
    )
    q.add_argument("baseline", help="baseline artifact "
                                    "(BENCH_*.json or metrics JSONL)")
    q.add_argument("current", help="current artifact to gate")
    q.add_argument("--tolerance", type=float, default=0.10,
                   help="relative tolerance before a directed measure "
                        "gates (default 0.10)")
    q.add_argument("--only", action="append", default=None, metavar="SUBSTR",
                   help="restrict to measure keys containing SUBSTR "
                        "(repeatable)")
    q.add_argument("--verbose", action="store_true",
                   help="show unchanged and informational measures too")

    for name in ("table1", "table2", "table3", "table4"):
        sub.add_parser(name, help=f"regenerate paper {name}")
    for name in ("fig7", "fig8", "fig9", "fig10"):
        sub.add_parser(name, help=f"regenerate paper {name}")

    p = sub.add_parser("projection", help="exascale what-if study")
    p.add_argument("--n", type=int, default=18432)

    p = sub.add_parser("validation", help="physics validation checklist")
    p.add_argument("--n", type=int, default=24)

    p = sub.add_parser("density", help="Titan-vs-Summit node-density study")
    p.add_argument("--n", type=int, default=12288)

    p = sub.add_parser(
        "resolution", help="physics targets -> grid sizes -> machine cost"
    )
    return parser


def _cmd_plan(args) -> int:
    import json

    from repro.plan import CapacityPlanner, bench_payload, validate_matrix

    if args.validate:
        reports = validate_matrix()
        for report in reports:
            print(report.report())
        failed = [r for r in reports if not r.matched]
        print(f"parity: {len(reports) - len(failed)}/{len(reports)} matched")
        return 1 if failed else 0

    planner = CapacityPlanner(args.machine)
    try:
        if args.sweep:
            quotes = planner.sweep(
                grids=args.grids or (3072, 6144, 12288, 18432),
                node_counts=(args.nodes,) if args.nodes else None,
                copy_strategies=tuple(args.strategies or ("memcpy2d",)),
                tasks_per_node=args.tasks_per_node,
                q=args.q if args.q == "slab" else int(args.q),
            )
            doc = bench_payload(quotes, machine=args.machine)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
            for q in quotes:
                print(f"  N={q.n:6d} @ {q.nodes:5d} nodes "
                      f"[{q.copy_strategy:>9}]: {q.seconds_per_step:8.2f} s/step")
            print(f"{len(quotes)} quotes written to {args.out}")
            return 0

        if args.quote:
            if args.n is None:
                print("error: --quote needs a problem size N", file=sys.stderr)
                return 2
            config = {"machine": args.machine, "n": args.n,
                      "nodes": args.nodes, "tasks_per_node": args.tasks_per_node,
                      "q": args.q, "copy_strategy": args.copy_strategy}
            with _registered_run("plan", config) as run, \
                    _flight_recording(run) as (events, _flight):
                events.info("plan.quote.start", machine=args.machine,
                            n=args.n, nodes=args.nodes)
                quote = planner.quote(
                    args.n, args.nodes, tasks_per_node=args.tasks_per_node,
                    q=args.q if args.q == "slab" else int(args.q),
                    copy_strategy=args.copy_strategy,
                )
                quote_path = run.dir / "quote.json"
                with open(quote_path, "w") as fh:
                    json.dump(quote.to_record(), fh, indent=2, sort_keys=True)
                run.add_artifact("quote", quote_path)
                events.info("plan.quote.finish", feasible=quote.feasible,
                            seconds_per_step=quote.seconds_per_step)
                print(quote.report())
                print(f"run {run.run_id}: quote saved to {quote_path}")
            return 0 if quote.feasible else 1

        if args.n is None:
            print("error: give a problem size N (or --sweep/--validate)",
                  file=sys.stderr)
            return 2
        mem = planner.planner
        print(f"minimum nodes (D=25): {mem.min_nodes(args.n)}")
        valid = mem.valid_node_counts(args.n)
        print(f"valid node counts   : {valid}")
        nodes = args.nodes if args.nodes is not None else (valid[-1] if valid else None)
        if nodes is None:
            print("problem does not fit on this machine")
            return 1
        row = mem.plan(args.n, nodes)
        print(f"plan for {nodes} nodes: mem/node {row.memory_per_node_gib:.1f} GiB, "
              f"np={row.npencils}, pencil {row.pencil_gib:.2f} GiB")
        return 0
    finally:
        planner.close()


def _cmd_autotune(args) -> int:
    from repro.core.autotuner import autotune
    from repro.machine.summit import summit

    print(autotune(summit(), args.n, args.nodes).report())
    return 0


def _cmd_step(args) -> int:
    from repro.core.config import Algorithm, RunConfig
    from repro.core.executor import simulate_step
    from repro.core.planner import MemoryPlanner
    from repro.core.timeline import render_timeline
    from repro.machine.summit import summit

    machine = summit()
    np_ = MemoryPlanner(machine).plan(args.n, args.nodes).npencils
    while args.n % np_ != 0:
        np_ += 1
    q = args.q if args.q is not None else np_
    cfg = RunConfig(
        n=args.n,
        nodes=args.nodes,
        tasks_per_node=args.tasks_per_node,
        npencils=np_,
        q_pencils_per_a2a=q,
        algorithm=Algorithm(args.algorithm),
        scheme=args.scheme,
    )
    timing = simulate_step(cfg, machine)
    print(f"{cfg.label()}: {timing.step_time:.2f} s/step")
    for cat, t in sorted(timing.breakdown.items()):
        print(f"  {cat:>6}: {t:8.2f} s busy")
    if args.timeline:
        print(render_timeline(timing.tracer, width=100))
    if args.chrome_trace:
        from repro.core.trace_export import write_chrome_trace

        path = write_chrome_trace(timing.tracer, args.chrome_trace)
        print(f"chrome trace written to {path}")
    return 0


from contextlib import contextmanager


@contextmanager
def _registered_run(kind: str, config: dict, seeds=()):
    """Register one CLI invocation in the run registry.

    Yields a :class:`~repro.obs.runs.RunHandle`; the manifest is finalized
    ``ok`` on clean exit or ``error`` (with the exception recorded) when the
    body raises — a crashed run still says what it was.
    """
    from repro.obs.runs import RunRegistry

    run = RunRegistry().start(kind, config=config, seeds=seeds,
                              argv=sys.argv[1:])
    try:
        yield run
    except BaseException as exc:
        run.finish(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    else:
        # A body that already judged itself (e.g. verify setting "fail")
        # keeps its verdict; only still-"running" runs finalize to ok.
        status = "ok" if run.manifest.status == "running" else run.manifest.status
        run.finish(status=status)


@contextmanager
def _flight_recording(run, events_level: str = "info"):
    """Flight recorder + event log for one run, installed process-globally.

    Yields ``(events, flight)``.  On an exception the recorder dumps a
    post-mortem into the run directory before re-raising (failure paths
    that *hang* instead — watchdog expiry, worker stalls — dump through
    :func:`repro.obs.flight.dump_current_flight` themselves).
    """
    from repro.obs import EventLog, FlightRecorder
    from repro.obs.flight import (
        current_flight,
        install_excepthook,
        install_flight,
        uninstall_flight,
    )

    events = EventLog(run_id=run.run_id, sink=run.events_path,
                      level=events_level)
    flight = FlightRecorder(run_id=run.run_id, artifact_dir=run.dir)
    flight.watch_events(events)
    previous = current_flight()
    install_flight(flight)
    install_excepthook()
    try:
        yield events, flight
    except BaseException as exc:
        path = flight.dump(reason=f"error-{type(exc).__name__}")
        run.add_artifact("flight_dump", path)
        raise
    finally:
        events.close()
        if previous is not None:
            install_flight(previous)
        else:
            uninstall_flight()


def _parse_heights(spec: str) -> tuple:
    """``"10,6,8"`` -> ``(10, 6, 8)``; raises ValueError on non-integers."""
    try:
        return tuple(int(h) for h in spec.split(",") if h.strip() != "")
    except ValueError:
        raise ValueError(
            f"--heights must be a comma-separated list of integers, "
            f"got {spec!r}"
        ) from None


def _report_bad_heights(exc: Exception, n: int, ranks: int) -> int:
    """Reasoned quote for an infeasible slab partition (clean exit 2).

    Mirrors the CapacityPlanner's INFEASIBLE quote shape — configuration
    header, reason, feasible alternative — instead of surfacing a raw
    assertion: the user learns *why* the partition is rejected and what
    the planner would hand out for the same grid and rank count.
    """
    import numpy as np

    bounds = np.linspace(0, n, ranks + 1).astype(int)
    balanced = ",".join(str(int(b - a)) for a, b in zip(bounds[:-1], bounds[1:]))
    print(f"slab partition quote: N={n} over {ranks} rank(s)", file=sys.stderr)
    print(f"  INFEASIBLE: {exc}", file=sys.stderr)
    print(
        f"  feasible: --heights {balanced} (any non-negative per-rank "
        f"heights summing to {n}), or --skew X for a deterministic "
        f"uneven split",
        file=sys.stderr,
    )
    return 2


def _cmd_dns(args) -> int:
    from repro.spectral import SpectralGrid

    config = {
        "n": args.n, "steps": args.steps, "nu": args.nu,
        "forced": args.forced, "fft_backend": args.fft_backend,
        "ranks": args.ranks, "comm": args.comm, "npencils": args.npencils,
        "pipeline": args.pipeline, "inflight": args.inflight,
        "copy_strategy": args.copy_strategy,
        "heights": args.heights, "skew": args.skew, "dlb": args.dlb,
    }
    seeds = [args.fuzz] if args.fuzz is not None else []
    with _registered_run("dns", config, seeds=seeds) as run:
        with _flight_recording(run) as (events, flight):
            grid = SpectralGrid(args.n)
            return _run_dns(args, grid, run, events, flight)


def _run_dns(args, grid, run, events, flight) -> int:
    import numpy as np

    from repro import __version__
    from repro.obs import Observability
    from repro.spectral import (
        BandForcing,
        NavierStokesSolver,
        SolverConfig,
        flow_statistics,
        random_isotropic_field,
    )

    # The flight recorder is always on (bounded ring, near-zero overhead);
    # traces / metrics / reports stay opt-in outputs of the same bundle.
    obs = Observability.create(events=events, flight=flight)

    rng = np.random.default_rng(0)
    if args.ranks is not None:
        return _cmd_dns_distributed(args, grid, rng, obs, run=run)
    forcing = BandForcing(k_force=2.5, eps_inj=1.0) if args.forced else None
    solver = NavierStokesSolver(
        grid,
        random_isotropic_field(grid, rng, energy=1.0),
        SolverConfig(
            nu=args.nu,
            fft_backend=args.fft_backend,
            diagnostics_every=args.diagnostics_every,
        ),
        forcing=forcing,
        obs=obs,
    )
    events.info("dns.start", n=args.n, steps=args.steps, nu=args.nu)
    step_records: list[dict] = []
    for step in range(1, args.steps + 1):
        result = solver.step(solver.stable_dt(cfl=0.5))
        events.debug("dns.step", step=step, t=result.time,
                     energy=result.energy)
        if obs.enabled:
            step_records.append({
                "kind": "step",
                "step": step,
                "time": result.time,
                "dt": result.dt,
                "energy": result.energy,
                "dissipation": result.dissipation,
                "wall_seconds": obs.metrics.histogram("solver.step.seconds").last,
            })
        if step % max(1, args.steps // 10) == 0:
            print(f"step {step:4d} t={result.time:.4f} E={result.energy:.5f} "
                  f"eps={result.dissipation:.5f}")
    events.info("dns.finish", steps=args.steps)
    print(flow_statistics(solver.u_hat, grid, args.nu))

    run_meta = {
        "repro_version": __version__,
        "n": args.n,
        "steps": args.steps,
        "nu": args.nu,
        "fft_backend": args.fft_backend,
    }
    if args.report:
        from repro.obs import render_breakdown, render_percentiles

        print()
        print(render_breakdown(obs.spans,
                               title=f"dns n={args.n} phase breakdown"))
        print()
        print(render_percentiles(obs.metrics,
                                 title=f"dns n={args.n} percentiles"))
    if args.trace_out:
        from repro.core.trace_export import write_chrome_trace

        path = write_chrome_trace(
            obs.spans.to_tracer(), args.trace_out, metadata=run_meta
        )
        run.add_artifact("chrome_trace", path)
        print(f"chrome trace written to {path}")
    if args.metrics_out:
        from repro.obs import write_jsonl

        records = [{"kind": "run", **run_meta}]
        records.extend(step_records)
        records.extend(obs.metrics.snapshot())
        write_jsonl(records, args.metrics_out)
        run.add_artifact("metrics", args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_dns_distributed(args, grid, rng, obs, run=None) -> int:
    """``dns --ranks P``: the slab-distributed solver, optionally on the
    out-of-core pencil pipeline (``--npencils/--pipeline/--inflight``)."""
    from repro import __version__
    from repro.dist import DistributedNavierStokesSolver, VirtualComm
    from repro.spectral import SolverConfig, flow_statistics, random_isotropic_field

    if args.forced:
        print("error: --forced is not supported with --ranks", file=sys.stderr)
        return 2
    if args.heights is not None and args.skew is not None:
        print("error: pass either --heights or --skew, not both",
              file=sys.stderr)
        return 2
    if args.dlb != "off" and args.npencils is None:
        print("error: --dlb requires --npencils (out-of-core engine)",
              file=sys.stderr)
        return 2
    if args.npencils is not None and args.fft_backend not in ("numpy", "auto"):
        print(f"error: --fft-backend {args.fft_backend} is not supported with "
              "--npencils (the out-of-core stages run numpy.fft)",
              file=sys.stderr)
        return 2
    heights = None
    if args.heights is not None:
        from repro.dist.decomp import normalize_heights

        try:
            heights = _parse_heights(args.heights)
            normalize_heights(grid.n, args.ranks, heights)
        except ValueError as exc:
            return _report_bad_heights(exc, grid.n, args.ranks)
    fuzz = monitor = plan = None
    if args.fuzz is not None:
        if args.npencils is None:
            print("error: --fuzz requires --npencils (out-of-core engine)",
                  file=sys.stderr)
            return 2
        from repro.verify import CommFaultPlan, InvariantMonitor, fuzz_profile

        try:
            fuzz = fuzz_profile(args.fuzz_profile, args.fuzz)
        except KeyError:
            print(f"error: unknown fuzz profile {args.fuzz_profile!r}",
                  file=sys.stderr)
            return 2
        monitor = InvariantMonitor()
        if fuzz.comm_drop_rate > 0.0 or fuzz.comm_late_rate > 0.0:
            plan = CommFaultPlan(seed=fuzz.seed, drop_rate=fuzz.comm_drop_rate,
                                 late_rate=fuzz.comm_late_rate)
    from repro.mpi.procs import make_comm

    try:
        comm = make_comm(args.comm, args.ranks,
                         fft_backend=args.fft_backend)
    except RuntimeError as exc:  # mpi requested but mpi4py missing
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if plan is not None:
        comm.fault_injector = plan
    try:
        solver = DistributedNavierStokesSolver(
            grid,
            comm,
            random_isotropic_field(grid, rng, energy=1.0),
            SolverConfig(nu=args.nu, fft_backend=args.fft_backend,
                         diagnostics_every=args.diagnostics_every),
            obs=obs,
            npencils=args.npencils,
            pipeline=args.pipeline,
            inflight=args.inflight,
            fuzz=fuzz,
            monitor=monitor,
            copy_strategy=args.copy_strategy,
            heights=heights,
            skew=args.skew,
            dlb=args.dlb,
        )
    except ValueError as exc:
        closer = getattr(comm, "close", None)
        if closer is not None:
            closer()
        return _report_bad_heights(exc, grid.n, args.ranks)
    dt = args.dt if args.dt is not None else 0.25 * grid.dx
    engine = (
        f"out-of-core np={args.npencils} pipeline={args.pipeline} "
        f"inflight={args.inflight} copy={args.copy_strategy}"
        if args.npencils else "whole-slab"
    )
    if fuzz is not None:
        engine += f" fuzz={fuzz.name}@{fuzz.seed}"
    if solver.fft.decomp.heights is not None:
        engine += f" heights={','.join(map(str, solver.fft.decomp.rank_heights))}"
    if args.dlb != "off":
        engine += f" dlb={args.dlb}"
    print(f"distributed dns: P={args.ranks} ranks, comm={args.comm}, {engine}")
    if args.comm == "procs":
        print(f"worker pids: {comm.worker_pids} "
              f"(cores available: {os.cpu_count()})")
    events = obs.events
    events.info("dns.start", n=args.n, ranks=args.ranks, comm=args.comm,
                steps=args.steps)
    try:
        for step in range(1, args.steps + 1):
            result = solver.step(dt)
            events.debug("dns.step", step=step, t=result.time,
                         energy=result.energy)
            if step % max(1, args.steps // 10) == 0:
                print(f"step {step:4d} t={result.time:.4f} "
                      f"E={result.energy:.5f} eps={result.dissipation:.5f}")
        print(flow_statistics(solver.gather_state(), grid, args.nu))
    finally:
        solver.close()
        closer = getattr(comm, "close", None)
        if closer is not None:
            closer()
    events.info("dns.finish", steps=args.steps)
    if getattr(comm, "worker_cpu_seconds", None):
        total_cpu = sum(comm.worker_cpu_seconds)
        print(f"worker cpu: {total_cpu:.2f}s across "
              f"{len(comm.worker_cpu_seconds)} rank processes")
    policy = getattr(solver.fft, "_dlb_policy", None)
    if policy is not None:
        print(f"dlb: {policy.pencils_lent} pencil(s) lent, "
              f"{policy.pencils_reclaimed} reclaimed "
              f"(lane weights {list(policy.costs)})")
    if monitor is not None:
        stats = getattr(solver.fft._backend, "stats", {})
        comm_faults = plan.injected if plan is not None else 0
        print(f"fuzz: {stats.get('injected', 0)} op fault(s) injected "
              f"({stats.get('recovered', 0)} recovered), "
              f"{comm_faults} comm fault(s), "
              f"{monitor.checks} invariant check(s), "
              f"{len(monitor.violations)} violation(s)")
        monitor.assert_quiescent()
    if args.report:
        from repro.obs import render_breakdown, render_percentiles

        print()
        print(render_breakdown(obs.spans,
                               title=f"dns n={args.n} P={args.ranks} breakdown"))
        print()
        print(render_percentiles(
            obs.metrics, title=f"dns n={args.n} P={args.ranks} percentiles"
        ))
    if args.trace_out:
        from repro.core.trace_export import write_chrome_trace

        path = write_chrome_trace(
            obs.spans.to_tracer(), args.trace_out,
            metadata={"repro_version": __version__, "n": args.n,
                      "ranks": args.ranks, "npencils": args.npencils,
                      "pipeline": args.pipeline},
        )
        if run is not None:
            run.add_artifact("chrome_trace", path)
        print(f"chrome trace written to {path}")
    if args.metrics_out:
        from repro.obs import write_jsonl

        write_jsonl(obs.metrics.snapshot(), args.metrics_out)
        if run is not None:
            run.add_artifact("metrics", args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_tune(args) -> int:
    config = {"n": args.n, "ranks": args.ranks, "npencils": args.npencils,
              "pipeline": args.pipeline, "inflight": args.inflight,
              "model": args.model}
    with _registered_run("tune", config) as run:
        return _run_tune(args, run)


def _run_tune(args, run) -> int:
    """``repro tune``: probe every copy engine on the run's pencil layouts.

    Builds the out-of-core FFT with ``copy_strategy="auto"``, round-trips a
    random field (inverse then forward), and prints the autotuner's probe
    table: measured bandwidth per (layout, strategy) with the winner marked.
    With ``--model`` the Fig. 7 analytic ranking of the same layouts is
    appended (this is the choice the simulated-CUDA backend would make).
    """
    import numpy as np

    from repro.cuda.copyengine import ChunkLayout, CopyAutotuner
    from repro.dist.outofcore import OutOfCoreSlabFFT
    from repro.dist.virtual_mpi import VirtualComm
    from repro.spectral.grid import SpectralGrid

    grid = SpectralGrid(args.n)
    P = args.ranks
    rng = np.random.default_rng(11)
    shape = None
    print(f"tune: n={args.n} P={P} np={args.npencils} "
          f"pipeline={args.pipeline}")
    with OutOfCoreSlabFFT(
        grid, VirtualComm(P), args.npencils,
        pipeline=args.pipeline, inflight=args.inflight,
        copy_strategy="auto",
    ) as fft:
        shape = fft.decomp.local_spectral_shape()
        spec = [
            (rng.standard_normal(shape)
             + 1j * rng.standard_normal(shape)).astype(grid.cdtype)
            for _ in range(P)
        ]
        fft.forward(fft.inverse(spec))
        tuner = fft.copy_tuner
        print()
        print(tuner.report())
        records = tuner.records()
        chosen = {r["strategy"] for r in records if r["winner"]}
        print()
        print(f"measured winners: {sorted(chosen)} "
              f"over {len({tuple(r['shape']) for r in records})} layout(s)")
        if args.model:
            model = CopyAutotuner(obs=None)
            probed = set()
            for r in tuner.results:
                if not r.winner or r.key in probed:
                    continue
                probed.add(r.key)
                # Rebuild the probe's exact chunk geometry (the models only
                # consume chunk_bytes and nchunks; the real shape stays in
                # the key for display).
                itemsize = np.dtype(r.key[1]).itemsize
                elems = max(r.chunk_bytes // itemsize, 1)
                layout = ChunkLayout(
                    shape=(r.nchunks, elems),
                    lead_ndim=1 if r.nchunks > 1 else 0,
                    chunk_elems=elems,
                    itemsize=itemsize,
                )
                model._choose_model((*r.key[:2], "sim"), layout)
            print()
            print("Fig. 7 model ranking (the sim-backend choice):")
            print(model.report())
            records = records + model.records()
        if args.json:
            import json
            from pathlib import Path

            from repro.obs.runs import run_provenance

            Path(args.json).write_text(
                json.dumps({"suite": "tune", "records": records,
                            "provenance": run_provenance()}, indent=2)
            )
            run.add_artifact("probe_records", args.json)
            print(f"probe records written to {args.json}")
    return 0


def _cmd_verify(args) -> int:
    """``repro verify``: the fuzz matrix + schedule exploration (CI job).

    Every line of the report names the (seed, profile) pair that produced
    it, so a CI failure reproduces locally with
    ``repro verify --seeds SEED --profiles NAME`` or interactively with
    ``repro dns --ranks P --npencils NP --pipeline threads --fuzz SEED``.
    """
    from repro.verify import DEFAULT_SEEDS, PROFILES, run_verification

    if args.scheduler:
        return _cmd_verify_scheduler(args)
    if args.seeds is not None:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    elif args.seed_base is not None:
        seeds = (args.seed_base, args.seed_base + 1, args.seed_base + 2)
    else:
        seeds = DEFAULT_SEEDS
    if args.profiles is not None:
        profiles = tuple(p for p in args.profiles.split(",") if p)
        unknown = [p for p in profiles if p not in PROFILES]
        if unknown:
            print(f"error: unknown profile(s) {unknown}; "
                  f"choose from {sorted(PROFILES)}", file=sys.stderr)
            return 2
    else:
        profiles = None
    heights = None
    if args.heights is not None:
        from repro.dist.decomp import normalize_heights

        try:
            heights = _parse_heights(args.heights)
            normalize_heights(args.n, args.ranks, heights)
        except ValueError as exc:
            return _report_bad_heights(exc, args.n, args.ranks)
    kwargs = {} if profiles is None else {"profiles": profiles}
    print(f"verify: n={args.n} P={args.ranks} np={args.npencils} "
          f"inflight={args.inflight} seeds={list(seeds)}"
          + (f" heights={list(heights)}" if heights else "")
          + (f" dlb={args.dlb}" if args.dlb != "off" else ""))
    config = {
        "n": args.n, "ranks": args.ranks, "npencils": args.npencils,
        "inflight": args.inflight, "steps": args.steps,
        "profiles": list(profiles) if profiles else list(PROFILES),
        "orders": args.orders, "copy_strategy": args.copy_strategy,
        "heights": list(heights) if heights else None, "dlb": args.dlb,
    }
    with _registered_run("verify", config, seeds=seeds) as run:
        report = run_verification(
            n=args.n,
            ranks=args.ranks,
            npencils=args.npencils,
            inflight=args.inflight,
            steps=args.steps,
            seeds=seeds,
            orders=args.orders,
            watchdog_seconds=args.watchdog,
            verbose=True,
            copy_strategy=args.copy_strategy,
            artifact_dir=str(run.dir),
            run_id=run.run_id,
            heights=heights,
            dlb=args.dlb,
            **kwargs,
        )
        print()
        print(report.render())
        for i, dump in enumerate(report.flight_dumps):
            run.add_artifact(f"flight_dump_{i}", dump)
        if args.metrics_out:
            from repro.obs import write_jsonl

            write_jsonl(report.metrics_records, args.metrics_out)
            run.add_artifact("metrics", args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        run.manifest.status = "ok" if report.passed else "fail"
    return 0 if report.passed else 1


def _cmd_verify_scheduler(args) -> int:
    """``repro verify --scheduler``: conformance-fuzz the serve scheduler.

    Plans each seeded workload twice in fresh stores and checks trace
    determinism plus the capacity and fairness invariants — the CI face
    of the ``pytest -m serve`` conformance tier.
    """
    from repro.verify import run_scheduler_fuzz

    if args.seeds is not None:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    elif args.seed_base is not None:
        seeds = list(range(args.seed_base, args.seed_base + args.workloads))
    else:
        seeds = list(range(args.workloads))
    print(f"verify --scheduler: {len(seeds)} seeded workloads")
    config = {"scheduler": True, "workloads": len(seeds)}
    with _registered_run("verify", config, seeds=seeds) as run:
        report = run_scheduler_fuzz(seeds=seeds)
        print(report.render())
        run.manifest.status = "ok" if report.ok else "fail"
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """``repro serve``: the multi-tenant job service front door."""
    import json
    from pathlib import Path

    from repro.serve import JobService, JobSpec, ServeCapacity

    def _service(**kwargs) -> JobService:
        return JobService(root=args.root, **kwargs)

    def _show(record) -> None:
        quote = record.quote or {}
        placement = record.placement or {}
        extra = ""
        if quote:
            extra += f" bytes={quote.get('device_bytes', 0):.0f}"
        if placement.get("final_energy") is not None:
            extra += f" E={placement['final_energy']:.6g}"
        if record.error:
            extra += f"  ({record.error})"
        print(f"  {record.id:<28} {record.state:<9} "
              f"tenant={record.spec.tenant:<10} restarts={record.restarts}"
              + extra)

    if args.serve_command == "submit":
        if args.spec:
            text = (sys.stdin.read() if args.spec == "-"
                    else Path(args.spec).read_text(encoding="utf-8"))
            spec = JobSpec.from_json(text)
        elif args.name:
            heights = (_parse_heights(args.heights)
                       if args.heights is not None else None)
            spec = JobSpec(
                name=args.name, tenant=args.tenant, priority=args.priority,
                n=args.n, steps=args.steps, dt=args.dt, nu=args.nu,
                scheme=args.scheme, ic=args.ic, ic_seed=args.ic_seed,
                ranks=args.ranks, comm=args.comm, npencils=args.npencils,
                pipeline=args.pipeline, inflight=args.inflight,
                copy_strategy=args.copy_strategy, heights=heights,
                skew=args.skew, dlb=args.dlb, fuzz_seed=args.fuzz_seed,
                fuzz_profile=args.fuzz_profile,
            )
        else:
            print("error: submit needs --spec FILE or --name (plus flags)",
                  file=sys.stderr)
            return 2
        service = _service()
        try:
            record = service.submit(spec)
        except ValueError as exc:
            print(f"error: invalid spec: {exc}", file=sys.stderr)
            return 2
        print(f"submitted {record.id} ({record.state}) "
              f"under {service.store.root}")
        if args.quote:
            print(service.quote(spec).report())
        return 0

    if args.serve_command == "status":
        service = _service()
        try:
            record = service.status(args.job_id)
        except KeyError:
            print(f"error: no job {args.job_id!r} under {service.store.root}",
                  file=sys.stderr)
            return 1
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.serve_command == "list":
        service = _service()
        records = service.list()
        if args.state:
            records = [r for r in records if r.state == args.state.upper()]
        if not records:
            print(f"no jobs under {service.store.root}")
            return 0
        print(f"jobs under {service.store.root}:")
        for record in records:
            _show(record)
        return 0

    if args.serve_command == "cancel":
        service = _service()
        try:
            record = service.cancel(args.job_id)
        except KeyError:
            print(f"error: no job {args.job_id!r} under {service.store.root}",
                  file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"cancelled {record.id} -> {record.state}")
        return 0

    if args.serve_command == "run-scheduler":
        capacity = ServeCapacity(
            **({} if args.device_bytes is None
               else {"device_bytes": args.device_bytes}),
            max_jobs=args.max_jobs,
        )
        service = _service(capacity=capacity, seed=args.seed)
        if service.last_reconcile and service.last_reconcile.readmitted:
            print(service.last_reconcile.render())
        result = service.run_scheduler(execute=not args.plan_only)
        print(result.render())
        for record in service.list():
            _show(record)
        return 0 if not result.failed else 1

    if args.serve_command == "api":
        from repro.serve.http_api import make_server, serve_forever

        capacity = ServeCapacity(
            **({} if args.device_bytes is None
               else {"device_bytes": args.device_bytes}),
            max_jobs=args.max_jobs,
        )
        service = _service(capacity=capacity)
        server = make_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(f"repro serve api on http://{host}:{port} "
              f"(store: {service.store.root}) — Ctrl-C to stop")
        try:
            serve_forever(server)
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.server_close()
        return 0

    raise AssertionError(
        f"unhandled serve command {args.serve_command}"
    )  # pragma: no cover


def _cmd_obs_report(args) -> int:
    """``repro obs report``: one line per saved run, newest last.

    Exits 2 when the registry holds a corrupted manifest — a run that
    exists but can't be trusted is a worse signal than "no runs yet"
    (exit 1), and CI must distinguish them.
    """
    from repro.obs.runs import RunRegistry

    registry = RunRegistry(args.runs_dir)
    runs, errors = registry.scan()
    if errors:
        for err in errors:
            print(f"error: corrupted manifest: {err}", file=sys.stderr)
        return 2
    if args.kind:
        runs = [h for h in runs if h.manifest.kind == args.kind]
    if not runs:
        print(f"no runs under {registry.root}")
        return 1
    shown = runs[-args.last:]
    print(f"runs under {registry.root} "
          f"({len(shown)} of {len(runs)} shown):")
    for h in shown:
        m = h.manifest
        wall = (f"{m.wall_seconds:8.2f}s" if m.wall_seconds is not None
                else "  (live)")
        sha = str((m.provenance or {}).get("git_sha", "unknown"))[:9]
        print(f"  {m.run_id:<34} {m.status:<7} {wall} "
              f"sha={sha} artifacts={len(m.artifacts)}")
    return 0


def _format_event(line: str) -> str:
    import json

    try:
        rec = json.loads(line)
    except ValueError:
        return line
    skip = {"kind", "ts", "level", "name", "run_id", "seq"}
    fields = " ".join(f"{k}={rec[k]}" for k in rec if k not in skip)
    ts = rec.get("ts", 0.0)
    return (f"  {ts:.3f} [{rec.get('level', '?'):<5}] "
            f"{rec.get('name', '?')} {fields}".rstrip())


def _cmd_obs_tail(args) -> int:
    """``repro obs tail``: recent events of one run; ``--follow`` streams
    new lines until the manifest leaves the ``running`` state."""
    import time as _time

    from repro.obs.runs import ManifestError, RunRegistry

    registry = RunRegistry(args.runs_dir)
    if args.run_id:
        try:
            run = registry.get(args.run_id)
        except ManifestError as exc:
            print(f"error: corrupted manifest: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError):
            print(f"error: no run {args.run_id!r} under {registry.root}",
                  file=sys.stderr)
            return 1
    else:
        run = registry.latest(kind=args.kind)
        if run is None:
            print(f"no runs under {registry.root}")
            return 1
    path = run.events_path
    print(f"run {run.run_id} [{run.manifest.status}] events: {path}")
    lines = (path.read_text(encoding="utf-8").splitlines()
             if path.is_file() else [])
    for line in lines[-args.lines:]:
        print(_format_event(line))
    if not args.follow:
        return 0
    seen = len(lines)
    while True:
        _time.sleep(0.2)
        lines = (path.read_text(encoding="utf-8").splitlines()
                 if path.is_file() else [])
        for line in lines[seen:]:
            print(_format_event(line))
        seen = len(lines)
        try:
            status = registry.get(run.run_id).manifest.status
        except (OSError, ValueError):  # pragma: no cover - run dir vanished
            status = "gone"
        if status != "running":
            print(f"run finished: {status}")
            return 0


def _cmd_obs_diff(args) -> int:
    """``repro obs diff``: the perf-regression gate (exit 1 on regression)."""
    from repro.obs.diff import diff_files

    try:
        result = diff_files(args.baseline, args.current,
                            tolerance=args.tolerance, only=args.only)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render(verbose=args.verbose))
    return 0 if result.passed else 1


def _cmd_obs(args) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    if args.obs_command == "tail":
        return _cmd_obs_tail(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    raise AssertionError(
        f"unhandled obs command {args.obs_command}"
    )  # pragma: no cover


def _cmd_report(module_name: str) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{module_name}")
    result = module.run()
    if hasattr(result, "report"):
        print(result.report())
    elif hasattr(result, "render"):  # fig10
        print(result.render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "autotune":
        return _cmd_autotune(args)
    if args.command == "step":
        return _cmd_step(args)
    if args.command == "dns":
        return _cmd_dns(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "projection":
        from repro.experiments.projection import run

        print(run(args.n).report())
        return 0
    if args.command == "validation":
        from repro.experiments.validation import run

        report = run(n=args.n)
        print(report.format())
        return 0 if report.all_passed else 1
    if args.command == "density":
        from repro.experiments.density_study import report

        print(report(args.n))
        return 0
    if args.command == "resolution":
        from repro.experiments.resolution_study import run

        for row in run():
            print(row.format())
        return 0
    if args.command in {"table1", "table2", "table3", "table4",
                        "fig7", "fig8", "fig9", "fig10"}:
        return _cmd_report(args.command)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
