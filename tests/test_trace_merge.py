"""Deterministic parallel trace merge: the distributed-tracing property
suite.

The load-bearing property mirrors the snapshot suite
(:mod:`test_explore_snapshot`): the engine's merged trace of a parallel
exploration projects to **byte-identical canonical form** no matter the job
count, the chunk size, or whether the branches ran in worker processes
or in the calling thread — exactly like the frontier
digest it travels with.  Hypothesis probes the property over randomized
hierarchies; a second property replays every merged trace against a
fresh layer and demands every pruning checkpoint verifies.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core import ExplorationProblem
from repro.core.explore import ExplorationEngine, WorkerPool, explore
from repro.core.obs import (
    WORKER_TASK,
    canonical_trace_bytes,
    canonical_trace_events,
)
from repro.core.obs.replay import replay_trace

from conftest import build_widget_layer
from test_explore_strategies import METRICS, random_layer


def traced_run(layer, problem, **options):
    """One traced exploration; returns (merged events, frontier digest).

    The layer is warmed by the caller first, so installing the recorder
    per configuration keeps index-rebuild events out of the diff.
    """
    recorder = layer.observe()
    recorder.clear()
    try:
        result = explore(problem, **options)
    finally:
        layer.observe(None)
    return list(recorder.events), result.frontier.digest()


def in_process_run(layer, problem):
    """:func:`traced_run` with the engine's parallel fan-out dispatched
    on a one-worker pool, which evaluates every branch in the calling
    thread."""
    engine = ExplorationEngine(problem, jobs=2)
    # Lent after construction, so the engine keeps its jobs=2 fan-out.
    engine.pool = WorkerPool(jobs=1)
    recorder = layer.observe()
    recorder.clear()
    try:
        result = engine.run()
    finally:
        layer.observe(None)
    return list(recorder.events), result.frontier.digest()


def parallel_problem(layer):
    """The problem the engine dispatches: live layer + snapshot, so
    every configuration (processes, chunked, in-process) hydrates
    identically."""
    return ExplorationProblem(start="R", metrics=METRICS, layer=layer,
                              snapshot=layer.snapshot())


CONFIGS = (
    {"jobs": 2},
    {"jobs": 3, "chunk_size": 1},
    {"jobs": 4, "chunk_size": 2},
)


class TestMergedTraceDeterminism:
    @given(st.integers(min_value=0, max_value=9999))
    @settings(max_examples=15, deadline=None)
    def test_canonical_bytes_identical_across_jobs_and_chunking(self, seed):
        layer = random_layer(seed)
        problem = parallel_problem(layer)
        explore(problem, jobs=2)  # warm: indexes built before tracing
        outcomes = [traced_run(layer, problem, **config)
                    for config in CONFIGS]
        outcomes.append(in_process_run(layer, problem))
        blobs = {canonical_trace_bytes(events) for events, _ in outcomes}
        fronts = {digest for _, digest in outcomes}
        assert len(blobs) == 1
        assert len(fronts) == 1

    def test_canonical_bytes_identical_across_backends(self):
        # Worker processes and the in-process dispatch merge the same
        # canonical trace, and it holds the worker spans.
        layer = random_layer(7)
        problem = parallel_problem(layer)
        explore(problem, jobs=2)
        outcomes = [traced_run(layer, problem, jobs=jobs, chunk_size=chunk)
                    for jobs, chunk in ((2, None), (4, 2))]
        outcomes.append(in_process_run(layer, problem))
        assert len({canonical_trace_bytes(e) for e, _ in outcomes}) == 1
        assert len({digest for _, digest in outcomes}) == 1
        assert all(any(e.kind == WORKER_TASK for e in events)
                   for events, _ in outcomes)

    def test_merged_trace_contains_worker_spans(self):
        layer = build_widget_layer()
        problem = ExplorationProblem(start="Widget", layer=layer,
                                     snapshot=layer.snapshot())
        explore(problem, jobs=2)
        events, _ = traced_run(layer, problem, jobs=2)
        tasks = [e for e in events if e.kind == WORKER_TASK]
        assert tasks
        # Every worker span is reparented under a root branch_open
        # anchor of the merged trace.
        anchors = {e.span for e in events
                   if e.kind == "branch_open" and e.span is not None}
        assert all(t.parent in anchors for t in tasks)
        # Worker-emitted children nest under the worker span.
        spans = {t.span for t in tasks}
        assert any(e.parent in spans for e in events
                   if e.kind not in (WORKER_TASK,))

    def test_canonical_form_drops_volatile_kinds(self):
        layer = build_widget_layer()
        problem = ExplorationProblem(start="Widget", layer=layer,
                                     snapshot=layer.snapshot())
        explore(problem, jobs=2)
        events, _ = traced_run(layer, problem, jobs=2, chunk_size=1)
        assert {"chunk_dispatch", "worker_hydrate"} <= \
            {e.kind for e in events}
        kinds = {row["kind"] for row in canonical_trace_events(events)}
        assert "worker_task" in kinds
        assert kinds.isdisjoint({"worker_hydrate", "chunk_dispatch",
                                 "chunk_steal"})


class TestMergedTraceReplay:
    @given(st.integers(min_value=0, max_value=9999))
    @settings(max_examples=10, deadline=None)
    def test_replaying_merged_trace_verifies_every_checkpoint(self, seed):
        layer = random_layer(seed)
        problem = parallel_problem(layer)
        explore(problem, jobs=2)
        events, _ = traced_run(layer, problem, jobs=3)
        report = replay_trace(layer, events)
        assert report.ok
        assert report.checks > 0

    def test_replay_detects_tampered_checkpoint(self):
        layer = build_widget_layer()
        problem = ExplorationProblem(start="Widget", layer=layer,
                                     snapshot=layer.snapshot())
        explore(problem, jobs=2)
        events, _ = traced_run(layer, problem, jobs=2)
        tampered = [
            replace(e, payload={**e.payload, "survivors":
                                e.payload["survivors"] + 1})
            if e.kind == "prune" and "survivors" in e.payload else e
            for e in events]
        report = replay_trace(layer, tampered)
        assert not report.ok
