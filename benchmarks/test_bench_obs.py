"""E-OBS — tracing overhead on the 50k-core pruning walk.

The observability subsystem's budget: a pruning walk over a 50k-core
synthetic library with a :class:`~repro.core.obs.recorder.TraceRecorder`
attached must cost less than 10% over the same walk against the default
no-op recorder.  Untraced and traced runs alternate, and the gate reads
the median of the per-pair traced/untraced ratios, so one run that
lands in the walk's fast mode on one side does not decide it.  This is the gate CI runs; the same helpers
feed ``benchmarks/record.py``, which commits the numbers to
``BENCH_pruning.json``.
"""

import pytest

from record import OVERHEAD_BUDGET, make_pruning_walk, overhead_measurements
from test_bench_scaling import synthetic_layer

from conftest import emit


@pytest.fixture(scope="module")
def layer_50k():
    return synthetic_layer(50000)


def test_bench_tracing_overhead_within_budget(layer_50k):
    data = overhead_measurements(repeat=5, layer=layer_50k)
    emit("Tracing overhead — 50k-core pruning walk",
         f"noop   best: {min(data['noop']) * 1e3:8.2f} ms\n"
         f"traced best: {min(data['traced']) * 1e3:8.2f} ms "
         f"({data['events_per_run']} events/run)\n"
         f"median pair ratio: x{data['ratio']:.3f}  "
         f"(budget x{OVERHEAD_BUDGET})")
    assert data["ratio"] < OVERHEAD_BUDGET, (
        f"tracing overhead x{data['ratio']:.3f} exceeds the "
        f"x{OVERHEAD_BUDGET} budget")


def test_bench_traced_walk(benchmark, layer_50k):
    """Absolute timing of the traced walk (for the records/history)."""
    recorder = layer_50k.observe()
    walk = make_pruning_walk(layer_50k)
    try:
        survivors = benchmark(lambda: (recorder.clear(), walk())[1])
    finally:
        layer_50k.observe(None)
    assert survivors > 0
    assert recorder.events


def test_traced_walk_replays(layer_50k):
    """The trace the benchmark produces is replayable and verifies."""
    from repro.core.obs import replay
    recorder = layer_50k.observe()
    recorder.clear()
    try:
        make_pruning_walk(layer_50k)()
        events = list(recorder.events)
    finally:
        layer_50k.observe(None)
    report = replay.replay_trace(layer_50k, events)
    assert report.ok, report.render_text()
    assert report.checks > 0
