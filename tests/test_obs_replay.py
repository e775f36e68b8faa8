"""Trace replay: recorded explorations reproduce identical prunings."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.obs import dumps_jsonl, read_jsonl, replay
from repro.core.session import ExplorationSession
from repro.errors import ReplayError, ReproError

from conftest import build_widget_layer


def record_walk(ops):
    """Apply ``ops`` to a traced widget-layer session; return its events.

    Invalid operations (deciding an issue of the other branch, undoing
    an empty history, ...) are simply skipped — exactly what a designer
    poking at the shell would produce — so every recorded event stream
    corresponds to mutations that actually succeeded.
    """
    layer = build_widget_layer()
    layer.observe()
    session = ExplorationSession(layer, "Widget")
    for op in ops:
        try:
            if op[0] == "require":
                session.set_requirement(op[1], op[2])
            elif op[0] == "decide":
                session.decide(op[1], op[2])
            elif op[0] == "retract":
                session.retract(op[1])
            elif op[0] == "undo":
                session.undo()
            elif op[0] == "checkpoint":
                session.checkpoint(op[1])
            elif op[0] == "restore":
                session.restore(op[1])
        except ReproError:
            continue
        session.prune_report()
    final = sorted(core.name for core in session.candidates())
    return list(layer.observer.events), final


OPS = st.lists(st.one_of(
    st.tuples(st.just("require"), st.just("Width"),
              st.sampled_from([16, 32, 64, 128])),
    st.tuples(st.just("require"), st.just("MaxDelay"),
              st.sampled_from([5, 10, 25, 1000, 5000])),
    st.tuples(st.just("decide"), st.just("Style"),
              st.sampled_from(["hw", "sw"])),
    st.tuples(st.just("decide"), st.just("Tech"),
              st.sampled_from(["t35", "t70"])),
    st.tuples(st.just("decide"), st.just("Pipeline"),
              st.sampled_from([1, 2, 4])),
    st.tuples(st.just("decide"), st.just("Lang"),
              st.sampled_from(["asm", "c"])),
    st.tuples(st.just("retract"),
              st.sampled_from(["Width", "MaxDelay", "Style", "Tech",
                               "Pipeline", "Lang"])),
    st.tuples(st.just("undo")),
    st.tuples(st.just("checkpoint"), st.sampled_from(["a", "b"])),
    st.tuples(st.just("restore"), st.sampled_from(["a", "b"])),
), max_size=12)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_replay_reproduces_every_pruning(ops):
    """Property: a recorded walk replays to the identical surviving-core
    set and merit ranges at every recorded pruning step — through a
    JSONL round-trip, against a freshly built layer."""
    events, final = record_walk(ops)
    restored = read_jsonl(io.StringIO(dumps_jsonl(events)))
    report = replay.replay_trace(build_widget_layer(), restored)
    assert report.ok, report.render_text()
    assert sorted(report.final_survivors) == final
    # every recorded pruning became a verified checkpoint
    recorded_prunes = sum(1 for e in restored
                          if e.kind in ("prune", "cache_hit")
                          and not e.payload.get("extra"))
    assert report.checks == recorded_prunes


def test_crypto_case_study_replays_byte_identical():
    from repro.domains.crypto import build_crypto_layer
    from repro.domains.crypto import vocab as v
    layer = build_crypto_layer(eol=768)
    layer.observe()
    session = ExplorationSession(
        layer, v.OMM_PATH,
        merit_metrics=("area", "latency_ns", "delay_us"))
    session.set_requirement(v.EOL, 768)
    session.set_requirement(v.MODULO_IS_ODD, v.GUARANTEED)
    session.prune_report()
    session.decide(v.IMPLEMENTATION_STYLE, v.HARDWARE)
    session.prune_report()
    session.decide(v.ALGORITHM, v.MONTGOMERY)
    session.set_requirement(v.LATENCY_US, 8.0)
    recorded = sorted(core.name for core in session.candidates())

    restored = read_jsonl(io.StringIO(dumps_jsonl(layer.observer.events)))
    report = replay.replay_trace(build_crypto_layer(eol=768), restored)
    assert report.ok, report.render_text()
    assert sorted(report.final_survivors) == recorded


def test_trace_without_session_open_is_rejected():
    layer = build_widget_layer()
    layer.observe()
    layer.libraries.index()  # infrastructure-only trace
    with pytest.raises(ReplayError, match="no session_open"):
        replay.replay_trace(build_widget_layer(), layer.observer.events)


def test_unknown_session_id_is_rejected():
    events, _ = record_walk([("require", "Width", 64)])
    with pytest.raises(ReplayError, match=r"no session 9 .*recorded: \[1\]"):
        replay.replay_trace(build_widget_layer(), events, session=9)
    assert replay.session_ids(events) == [1]


def test_mid_session_enablement_stays_replayable():
    """Tracing switched on after decisions were made: the session_open
    payload carries the accumulated state and replay primes it."""
    layer = build_widget_layer()
    session = ExplorationSession(layer, "Widget")
    session.set_requirement("Width", 64)
    session.decide("Style", "hw")
    layer.observe()
    session.decide("Tech", "t35")
    session.prune_report()
    final = sorted(core.name for core in session.candidates())

    report = replay.replay_trace(build_widget_layer(),
                                 layer.observer.events)
    assert report.ok, report.render_text()
    assert sorted(report.final_survivors) == final
    primed = [s for s in report.steps if "(priming)" in s.detail]
    assert len(primed) == 2  # Width=64 and Style='hw'


def test_replay_selects_one_of_several_sessions():
    layer = build_widget_layer()
    layer.observe()
    one = ExplorationSession(layer, "Widget")
    two = ExplorationSession(layer, "Widget")
    one.set_requirement("Width", 64)
    two.set_requirement("Width", 32)
    one.prune_report()
    two.prune_report()
    events = list(layer.observer.events)
    assert replay.session_ids(events) == [1, 2]
    first = replay.replay_trace(build_widget_layer(), events, session=1)
    second = replay.replay_trace(build_widget_layer(), events, session=2)
    assert first.ok and second.ok
    assert first.final_survivors != second.final_survivors


def test_divergence_detected_against_changed_layer():
    """Replaying against a layer whose library gained a core reports the
    pruning mismatch instead of raising."""
    from repro.core import DesignObject
    events, _ = record_walk([("require", "Width", 64),
                             ("decide", "Style", "hw")])
    changed = build_widget_layer()
    changed.libraries.libraries[0].add(DesignObject(
        "h9", "Widget.hw", {"Tech": "t35", "Pipeline": 4, "Width": 128},
        {"area": 90.0, "latency_ns": 5.0, "MaxDelay": 5.0}))
    report = replay.replay_trace(changed, events)
    assert not report.ok
    assert report.mismatches
    assert any("digest" in s.detail or "survivors" in s.detail
               for s in report.mismatches)
    assert "DIVERGED" in report.render_text()
    assert report.to_dict()["ok"] is False

