"""E-TRACE-PAR — distributed tracing on the parallel 50k-core walk.

The traced-parallel budget: exploring the 50k-core synthetic layer on a
warm jobs=4 process pool with worker span capture and deterministic
trace merge enabled must cost less than 10% over the same untraced
dispatch (best-of-N over best-of-N).  The overhead gate is valid on any
CPU count — both sides pay the identical dispatch cost — so unlike the
speedup gates it is not CPU-gated.  The determinism tests pin the
canonical merged trace byte-identical across job counts and chunk
sizes, and the merged trace replayable with every pruning
checkpoint verifying.  ``benchmarks/record.py`` commits the numbers to
``BENCH_pruning.json`` under ``"parallel_tracing"``.
"""

import pytest

from record import OVERHEAD_BUDGET, parallel_tracing_measurements
from test_bench_explore import exploration_problem

from conftest import emit

from repro.core.explore import explore
from repro.core.obs import (
    WORKER_TASK,
    canonical_trace_bytes,
    profile_events,
)


@pytest.fixture(scope="module")
def problem_50k():
    problem = exploration_problem(50000)
    problem.resolve_layer().observe(None)
    explore(problem, strategy="exhaustive")  # warm the indexes
    return problem


def traced_events(problem, **options):
    """One traced exploration; returns (merged events, frontier digest)."""
    layer = problem.resolve_layer()
    recorder = layer.observe()
    recorder.clear()
    try:
        result = explore(problem, **options)
    finally:
        layer.observe(None)
    return list(recorder.events), result.frontier.digest()


def test_bench_traced_parallel_within_budget():
    data = parallel_tracing_measurements(repeat=3)
    emit("Distributed tracing overhead — 50k-core parallel walk "
         f"(jobs={data['jobs']})",
         f"untraced best: {min(data['untraced']) * 1e3:8.2f} ms\n"
         f"traced   best: {min(data['traced']) * 1e3:8.2f} ms "
         f"({data['events_per_run']} events, "
         f"{data['worker_spans']} worker spans, "
         f"rate {data['sample_rate']:g})\n"
         f"ratio: x{data['ratio']:.3f}  (budget x{OVERHEAD_BUDGET})")
    assert data["worker_spans"] > 0
    assert data["ratio"] < OVERHEAD_BUDGET, (
        f"traced-parallel overhead x{data['ratio']:.3f} exceeds the "
        f"x{OVERHEAD_BUDGET} budget")


def test_merged_trace_byte_identical_across_dispatch(problem_50k):
    configs = (
        {"jobs": 2},
        {"jobs": 4, "chunk_size": 2},
        {"jobs": 4},
        {"jobs": 4, "chunk_size": 1},
    )
    outcomes = [traced_events(problem_50k, **config) for config in configs]
    blobs = {canonical_trace_bytes(events) for events, _ in outcomes}
    assert len({digest for _, digest in outcomes}) == 1
    assert len(blobs) == 1, (
        "canonical merged trace diverged across dispatch configurations")


def test_merged_trace_replays_and_profiles(problem_50k):
    from repro.core.obs import replay

    events, _ = traced_events(problem_50k, jobs=4)
    report = replay.replay_trace(problem_50k.resolve_layer(), events)
    assert report.ok, report.render_text()
    assert report.checks > 0
    profile = profile_events(events)
    flame = profile.render_flame()
    emit("Span profile — merged jobs=4 trace (top sites)",
         profile.render_table(top=8))
    # The flame tree surfaces the per-worker branch spans with their
    # hydrate/branch children.
    assert any(s.kind == WORKER_TASK for s in profile.sites)
    assert WORKER_TASK in flame
