"""Deadlock watchdog for fuzzed and schedule-explored runs.

A scheduling bug in the event graph shows up as a *hang*, not an exception
— a worker blocked forever on an event nobody will set.  Tests can't afford
to hang CI, so :func:`watchdog` bounds any block of code with a hard
wall-clock limit: a timer thread sends ``SIGINT`` to the main thread with
``signal.pthread_kill`` and the resulting ``KeyboardInterrupt`` is
converted into :class:`DeadlockTimeout`.

A real signal is what makes this work on a true hang.  The main thread of
a hung run sits in an *untimed* ``threading.Event.wait()`` or lock
acquire (``synchronize`` on the exec backends); the signal interrupts that
wait, and the interpreter runs the ``KeyboardInterrupt`` handler at once.
``_thread.interrupt_main`` only sets the interpreter's pending-signal flag,
which a blocked wait never looks at, so the interrupt landed only when
the wait returned on its own — never, for an untimed wait.  If ``SIGINT``
is ignored or left at the OS default (a process started with ``SIGINT``
ignored), Python's default handler is installed for the duration of the
block so the signal still raises.

There is a tiny residual race: if the timer fires in the same instant the
protected block exits normally, the interrupt can land just after the
``with`` block.  The guard flag, checked and set under one lock with the
signal sent inside it, confines that window to the context manager's own
``finally``.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager

__all__ = ["DeadlockTimeout", "watchdog"]


class DeadlockTimeout(RuntimeError):
    """The watchdog expired: the protected block is presumed deadlocked."""


@contextmanager
def watchdog(seconds: float, label: str = "fuzzed run"):
    """Interrupt the main thread if the block runs longer than ``seconds``.

    Must be used from the main thread (the signal targets it, and only the
    main thread may install a signal handler).
    """
    state = {"expired": False, "done": False}
    lock = threading.Lock()
    main_ident = threading.main_thread().ident
    previous = signal.getsignal(signal.SIGINT)
    if not callable(previous):
        signal.signal(signal.SIGINT, signal.default_int_handler)

    def fire():
        with lock:
            if state["done"]:
                return
            state["expired"] = True
            signal.pthread_kill(main_ident, signal.SIGINT)

    timer = threading.Timer(seconds, fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    except KeyboardInterrupt:
        if state["expired"]:
            # The run is presumed hung: leave a post-mortem (ring of recent
            # spans, open spans, heartbeat ages) before surfacing the
            # timeout.  The dump runs on the main thread *after* the
            # interrupt landed, so it cannot deadlock on the hung state.
            from repro.obs.flight import dump_current_flight

            dump_current_flight(f"deadlock-{label.replace(' ', '-')}")
            raise DeadlockTimeout(
                f"{label} exceeded {seconds:.1f}s watchdog — presumed deadlock"
            ) from None
        raise
    finally:
        with lock:
            state["done"] = True
        timer.cancel()
        if not callable(previous):
            signal.signal(
                signal.SIGINT,
                previous if previous is not None else signal.SIG_DFL,
            )
