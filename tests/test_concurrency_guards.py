"""Regression tests for the concurrency defects the analyzer flagged.

Each test reproduces (on the pre-fix code) a real interleaving bug the
``repro analyze`` race pass reported: lost counter increments, lost
epoch bumps and torn trace streams.  ``sys.setswitchinterval`` is dropped to
~10µs so the GIL hands over mid-read-modify-write often enough to make
the races deterministic failures without the locks.
"""

import sys
import threading

import pytest

from repro.core import DesignObject, ReuseLibrary
from repro.core.obs.metrics import MetricsRegistry

from conftest import build_widget_layer


@pytest.fixture(autouse=True)
def _tight_gil():
    """Force frequent thread switches so read-modify-write races lose."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def run_threads(n, fn):
    """Run ``fn(i)`` in n threads behind a barrier; re-raise any error."""
    barrier = threading.Barrier(n)
    errors = []

    def body(i):
        barrier.wait()
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - reported to pytest
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestMetricsUnderThreads:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        threads, per_thread = 8, 2000

        run_threads(threads, lambda i: [counter.inc()
                                        for _ in range(per_thread)])
        assert counter.value == threads * per_thread

    def test_get_or_create_returns_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        lock = threading.Lock()

        def body(i):
            counter = registry.counter("shared", backend="thread")
            with lock:
                seen.append(counter)
            counter.inc()

        run_threads(16, body)
        assert len({id(c) for c in seen}) == 1
        assert seen[0].value == 16
        assert len(registry._counters) == 1

    def test_histogram_totals_stay_consistent(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        threads, per_thread = 8, 1000

        run_threads(threads,
                    lambda i: [hist.observe(1e-3) for _ in range(per_thread)])
        expected = threads * per_thread
        assert hist.count == expected
        assert hist.total == pytest.approx(expected * 1e-3)
        assert sum(hist.bucket_counts) == expected


class TestEpochUnderThreads:
    def test_layer_epoch_bumps_survive_concurrent_readers(self):
        """The lost-bump race: epoch's compare-then-publish used to let a
        reader observe the new signature, publish it, and *then* a second
        reader skip the increment — a mutation without an epoch move, so
        stale indexes survived."""
        layer = build_widget_layer()
        library = layer.libraries.library("lib-a")
        stop = threading.Event()

        def reader(i):
            while not stop.is_set():
                layer.epoch

        readers = [threading.Thread(target=reader, args=(i,))
                   for i in range(4)]
        for t in readers:
            t.start()
        try:
            for n in range(50):
                before = layer.epoch
                library.add(DesignObject(
                    f"extra{n}", "Widget.hw",
                    {"Tech": "t35", "Pipeline": 1, "Width": 8},
                    {"area": 1.0}))
                assert layer.epoch > before
        finally:
            stop.set()
            for t in readers:
                t.join()

    def test_federation_index_identity_under_concurrent_readers(self):
        layer = build_widget_layer()
        federation = layer.libraries
        library = ReuseLibrary("lib-b", "more")
        library.add(DesignObject("x1", "Widget.hw",
                                 {"Tech": "t70", "Pipeline": 2, "Width": 16},
                                 {"area": 5.0}))
        layer.attach_library(library)

        seen = []
        lock = threading.Lock()

        def body(i):
            index = federation.index()
            with lock:
                seen.append(index)

        run_threads(12, body)
        # Every reader racing past the same epoch must agree on one
        # rebuilt index, and it must cover both libraries.
        assert len({id(ix) for ix in seen}) == 1
        assert len(seen[0]) == 6


class TestTraceRecorderUnderThreads:
    def test_concurrent_emits_keep_seq_dense(self):
        layer = build_widget_layer()
        recorder = layer.observe()
        threads, per_thread = 8, 400

        run_threads(threads,
                    lambda i: [recorder.emit("decide", thread=i, step=n)
                               for n in range(per_thread)])
        seqs = sorted(e.seq for e in recorder.events)
        assert len(seqs) == threads * per_thread
        # No lost or duplicated sequence numbers under contention.
        assert seqs == list(range(len(seqs)))
        counter = recorder.metrics.counter("dsl_events_total",
                                           kind="decide")
        assert counter.value == threads * per_thread

    def test_span_parentage_stays_per_thread(self):
        layer = build_widget_layer()
        recorder = layer.observe()
        threads, per_thread = 8, 100

        def body(i):
            for n in range(per_thread):
                with recorder.span("prune", thread=i) as span:
                    inner = recorder.emit("cache_hit", thread=i, step=n)
                    # The child must nest under THIS thread's open span,
                    # never under a sibling thread's.
                    assert inner.parent == span.span_id
                    assert inner.payload["thread"] == i

        run_threads(threads, body)
        spans = [e for e in recorder.events if e.kind == "prune"]
        assert len(spans) == threads * per_thread
        assert len({e.span for e in spans}) == len(spans)
        for child in (e for e in recorder.events if e.kind == "cache_hit"):
            parent = next(s for s in spans if s.span == child.parent)
            assert parent.payload["thread"] == child.payload["thread"]

    def test_next_session_ids_stay_unique(self):
        layer = build_widget_layer()
        recorder = layer.observe()
        ids = []
        lock = threading.Lock()

        def body(i):
            mine = [recorder.next_session() for _ in range(300)]
            with lock:
                ids.extend(mine)

        run_threads(8, body)
        assert len(ids) == len(set(ids)) == 8 * 300
