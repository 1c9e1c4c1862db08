"""Tests for the backend-neutral stream/event runtime (sync + threads)."""

import threading
import time

import pytest

from repro.exec import (
    DependencyFailed,
    ExecError,
    SyncBackend,
    ThreadBackend,
    make_backend,
)
from repro.obs import Observability


class TestMakeBackend:
    def test_kinds(self):
        assert make_backend("sync").kind == "sync"
        b = make_backend("threads")
        assert b.kind == "threads"
        b.shutdown()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown exec backend"):
            make_backend("cuda")


class TestSyncStreams:
    def test_inline_execution_in_submission_order(self):
        backend = SyncBackend()
        s = backend.stream("compute")
        log = []
        e1 = s.submit("a", "fft", lambda: log.append("a"))
        e2 = s.submit("b", "fft", lambda: log.append("b"))
        assert log == ["a", "b"]
        assert e1.done and e2.done
        e1.wait()  # already complete, no-op

    def test_wait_event_propagates_failure(self):
        backend = SyncBackend()
        s = backend.stream("compute")

        def boom():
            raise RuntimeError("kernel failed")

        with pytest.raises(RuntimeError, match="kernel failed"):
            s.submit("bad", "fft", boom)

    def test_spans_on_stream_lanes(self):
        obs = Observability.create()
        backend = SyncBackend(obs=obs)
        backend.stream("h2d").submit("copyin", "h2d", lambda: None)
        backend.stream("compute").submit("ffty", "fft", lambda: None)
        backend.drain_obs()
        lanes = {a.lane for a in obs.spans.to_tracer()}
        assert lanes == {"stream.h2d", "stream.compute"}


class TestThreadStreams:
    def test_fifo_order_per_stream(self):
        backend = ThreadBackend()
        s = backend.stream("compute")
        log = []
        for i in range(20):
            s.submit(f"op{i}", "fft", lambda i=i: log.append(i))
        backend.synchronize()
        backend.shutdown()
        assert log == list(range(20))

    def test_cross_stream_event_ordering(self):
        backend = ThreadBackend()
        a, b = backend.stream("a"), backend.stream("b")
        log = []
        ev = a.submit("slow", "fft", lambda: (time.sleep(0.05), log.append("a")))
        b.wait_event(ev)
        b.submit("after", "fft", lambda: log.append("b"))
        backend.synchronize()
        backend.shutdown()
        assert log == ["a", "b"]

    def test_streams_overlap_for_gil_releasing_work(self):
        backend = ThreadBackend()
        streams = [backend.stream(n) for n in ("s0", "s1", "s2")]
        t0 = time.perf_counter()
        for s in streams:
            s.submit("sleep", "fft", lambda: time.sleep(0.05))
        backend.synchronize()
        wall = time.perf_counter() - t0
        backend.shutdown()
        # Three 50 ms sleeps on three streams must not serialize (150 ms).
        assert wall < 0.12

    def test_failure_poisons_stream_and_synchronize_raises_root_cause(self):
        backend = ThreadBackend()
        s = backend.stream("compute")
        ran = []

        def boom():
            raise RuntimeError("kernel failed")

        s.submit("bad", "fft", boom)
        s.submit("after", "fft", lambda: ran.append(1))
        with pytest.raises(RuntimeError, match="kernel failed"):
            backend.synchronize()
        assert ran == []  # poisoned stream never ran the later op

    def test_dependency_failure_cascades_without_deadlock(self):
        backend = ThreadBackend()
        a, b = backend.stream("a"), backend.stream("b")

        def boom():
            raise RuntimeError("upstream")

        ev = a.submit("bad", "fft", boom)
        b.wait_event(ev)
        after = b.submit("after", "fft", lambda: None)
        after._flag.wait(timeout=5.0)  # all events always fire
        assert isinstance(after.exception, DependencyFailed)
        with pytest.raises(RuntimeError, match="upstream"):
            backend.synchronize()

    def test_reset_discards_poisoned_streams_and_backend_is_reusable(self):
        backend = ThreadBackend()
        s = backend.stream("compute")
        s.submit("bad", "fft", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            backend.synchronize()
        backend.reset()
        log = []
        backend.stream("compute").submit("good", "fft", lambda: log.append(1))
        backend.synchronize()
        backend.shutdown()
        assert log == [1]

    def test_event_wait_timeout(self):
        backend = ThreadBackend()
        s = backend.stream("compute")
        ev = s.submit("slow", "fft", lambda: time.sleep(0.2))
        with pytest.raises(TimeoutError):
            ev.wait(timeout=0.01)
        backend.synchronize()
        backend.shutdown()

    def test_spans_merge_into_shared_timeline(self):
        obs = Observability.create()
        backend = ThreadBackend(obs=obs)
        backend.stream("h2d").submit("copyin", "h2d", lambda: None)
        backend.stream("d2h").submit("copyout", "d2h", lambda: None)
        backend.synchronize()
        backend.drain_obs()
        backend.shutdown()
        tracer = obs.spans.to_tracer()
        assert {a.lane for a in tracer} == {"stream.h2d", "stream.d2h"}
        assert {a.category for a in tracer} == {"h2d", "d2h"}

    def test_submissions_from_multiple_threads_are_safe(self):
        backend = ThreadBackend()
        s = backend.stream("compute")
        hits = []
        lock = threading.Lock()

        def submit_some():
            for _ in range(25):
                s.submit("op", "fft", lambda: None)
                with lock:
                    hits.append(1)

        threads = [threading.Thread(target=submit_some) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        backend.synchronize()
        backend.shutdown()
        assert len(hits) == 100


class TestFoldedWaits:
    """``wait_event`` rides on the next op instead of queueing its own."""

    def test_one_queue_op_per_submit(self, monkeypatch):
        from repro.exec import threads

        made = []
        raw_op = threads._Op

        def counting_op(*args):
            made.append(args[0])
            return raw_op(*args)

        monkeypatch.setattr(threads, "_Op", counting_op)
        backend = ThreadBackend()
        a, b = backend.stream("a"), backend.stream("b")
        ev = a.submit("first", "h2d", lambda: None)
        b.wait_event(ev)
        b.wait_event(a.submit("second", "h2d", lambda: None))
        b.submit("after", "fft", lambda: None)
        assert made == ["first", "second", "after"]
        backend.synchronize()
        backend.shutdown()

    def test_folded_wait_on_failed_event_poisons_the_stream(self):
        backend = ThreadBackend()
        a, b = backend.stream("a"), backend.stream("b")
        ran = []
        ev = a.submit("bad", "fft", lambda: 1 / 0)
        b.wait_event(ev)
        first = b.submit("first", "fft", lambda: ran.append("first"))
        later = b.submit("later", "fft", lambda: ran.append("later"))
        for event in (first, later):
            with pytest.raises(DependencyFailed):
                event.wait(timeout=5.0)
        assert isinstance(first.exception.__cause__, ZeroDivisionError)
        assert ran == []
        with pytest.raises(ZeroDivisionError):
            backend.synchronize()
        backend.shutdown()

    def test_trailing_wait_blocks_synchronize_until_the_event_fires(self):
        backend = ThreadBackend()
        a, b = backend.stream("a"), backend.stream("b")
        gate = threading.Event()
        ev = a.submit("gated", "fft", lambda: gate.wait(5.0))
        b.wait_event(ev)  # nothing submitted on b after this wait
        synced = threading.Event()

        def sync_b():
            b.synchronize()
            synced.set()

        waiter = threading.Thread(target=sync_b)
        waiter.start()
        assert not synced.wait(0.2)  # b's synchronize waits for ev
        gate.set()
        waiter.join(timeout=5.0)
        assert synced.is_set() and ev.done
        backend.synchronize()
        backend.shutdown()

    def test_waits_from_racing_submitters_still_order_their_ops(self):
        # Four threads each pair a wait on an upstream op with a submit on
        # one shared stream.  Whichever op carries a wait, FIFO order must
        # still run every op after the event its submitter waited on.
        import sys

        backend = ThreadBackend()
        shared = backend.stream("shared")
        ups = [backend.stream(f"up{k}") for k in range(4)]
        violations = []

        def submitter(k):
            for j in range(50):
                ev = ups[k].submit(f"up{k}[{j}]", "h2d", lambda: None)
                shared.wait_event(ev)
                shared.submit(
                    f"op{k}[{j}]", "fft",
                    lambda ev=ev: ev.done or violations.append(ev.name),
                )

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submitter, args=(k,)) for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            backend.synchronize()
        finally:
            sys.setswitchinterval(old)
            backend.shutdown()
        assert violations == []


class TestSyncWaitSemantics:
    def test_sync_wait_on_pending_event_is_an_error(self):
        class Pending:
            done = False
            exception = None

        backend = SyncBackend()
        with pytest.raises(ExecError):
            backend.stream("s").wait_event(Pending())
