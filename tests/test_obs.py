"""The observability subsystem: recorders, metrics, exporters, events."""

import io
import json
import os

import pytest

from repro.core.obs import (
    CONSTRAINT_FIRED,
    DECIDE,
    ESTIMATE_INVOKED,
    INDEX_REBUILD,
    LINT_RUN,
    PRUNE,
    REQUIRE,
    SESSION_OPEN,
    MetricsRegistry,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
    dumps_jsonl,
    read_jsonl,
    render_timeline,
    summarize,
    summarize_dict,
    write_jsonl,
)
from repro.core.obs.recorder import NULL_RECORDER, NULL_SPAN
from repro.core.pruning import names_digest
from repro.core.session import ExplorationSession
from repro.errors import ObservabilityError

from conftest import build_widget_layer


class FakeClock:
    """Deterministic monotonic clock advancing 1 ms per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def fake_recorder() -> TraceRecorder:
    return TraceRecorder(clock=FakeClock(), wall=lambda: 1000.0)


# ----------------------------------------------------------------------
# recorders
# ----------------------------------------------------------------------
class TestNullRecorder:
    def test_is_disabled_and_observes_nothing(self):
        null = NullRecorder()
        assert not null.enabled
        assert null.emit("prune", survivors=3) is None
        assert null.events == ()

    def test_span_is_reusable_noop(self):
        with NULL_RECORDER.span("prune", foo=1) as span:
            span.note(bar=2)
        assert span is NULL_SPAN

    def test_wrap_tools_passthrough(self):
        tools = {"est": lambda b: 1.0}
        assert NULL_RECORDER.wrap_tools(tools) is tools


class TestTraceRecorder:
    def test_emit_orders_and_stamps(self):
        rec = fake_recorder()
        first = rec.emit(REQUIRE, name="Width", value=64)
        second = rec.emit(DECIDE, issue="Style")
        assert (first.seq, second.seq) == (0, 1)
        assert first.at == 1000.0
        assert second.elapsed_s > first.elapsed_s
        assert not first.is_span

    def test_span_measures_and_nests(self):
        rec = fake_recorder()
        with rec.span(PRUNE, cdo="Widget") as outer:
            rec.emit(INDEX_REBUILD)
            with rec.span(ESTIMATE_INVOKED, tool="t") as inner:
                inner.note(value=3.0)
        events = {e.kind: e for e in rec.events}
        prune = events[PRUNE]
        estimate = events[ESTIMATE_INVOKED]
        assert prune.is_span and prune.duration_s > 0
        assert outer.span_id == prune.span
        # both children carry the outer span as parent
        assert events[INDEX_REBUILD].parent == prune.span
        assert estimate.parent == prune.span
        assert estimate.payload["value"] == 3.0
        # the span event is emitted at close, after its children
        assert prune.seq > estimate.seq

    def test_wrap_tools_records_invocations(self):
        rec = fake_recorder()
        wrapped = rec.wrap_tools({"delay": lambda b: b["x"] * 2.0})
        assert wrapped["delay"]({"x": 4}) == 8.0
        (event,) = rec.events
        assert event.kind == ESTIMATE_INVOKED
        assert event.payload == {"tool": "delay", "value": 8.0}
        assert rec.metrics.counter("dsl_estimate_invocations_total",
                                   tool="delay").value == 1

    def test_clear_resets_events_and_metrics(self):
        rec = fake_recorder()
        rec.emit(REQUIRE, name="Width", value=1)
        rec.clear()
        assert rec.events == []
        assert len(rec.metrics) == 0

    def test_event_counts_land_in_the_registry_after_clear(self):
        rec = fake_recorder()
        rec.emit(REQUIRE, name="Width", value=1)
        rec.emit(REQUIRE, name="Width", value=2)
        old = rec.metrics
        rec.clear()
        rec.emit(REQUIRE, name="Width", value=3)
        assert old.counter("dsl_events_total", kind=REQUIRE).value == 2
        assert rec.metrics.counter("dsl_events_total",
                                   kind=REQUIRE).value == 1

    def test_metrics_derived_from_events(self):
        rec = fake_recorder()
        with rec.span(PRUNE) as span:
            span.note(survivors=7)
        assert rec.metrics.gauge("dsl_surviving_cores").value == 7
        assert rec.metrics.histogram("dsl_prune_seconds").count == 1


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_histogram_buckets_and_summary(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 55.5
        assert (histogram.min, histogram.max) == (0.5, 50.0)
        assert histogram.cumulative() == [("1", 1), ("10", 2), ("+Inf", 3)]

    def test_labels_identify_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("n", kind="a")
        b = registry.counter("n", kind="b")
        assert a is not b
        assert registry.counter("n", kind="a") is a

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("dsl_events_total", "events", kind="prune").inc(3)
        registry.gauge("dsl_cores", "cores").set(40)
        registry.histogram("dsl_seconds", "latency",
                           buckets=(0.1,)).observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE dsl_events_total counter" in text
        assert 'dsl_events_total{kind="prune"} 3' in text
        assert "# HELP dsl_cores cores" in text
        assert 'dsl_seconds_bucket{le="+Inf"} 1' in text
        assert "dsl_seconds_count 1" in text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("dsl_n", "c", kind='say "hi"\\now\n').inc(1)
        text = registry.render_prometheus()
        assert 'dsl_n{kind="say \\"hi\\"\\\\now\\n"} 1' in text

    def test_prometheus_escapes_help_text(self):
        registry = MetricsRegistry()
        registry.gauge("dsl_g", "line one\nline \\ two").set(0)
        text = registry.render_prometheus()
        assert "# HELP dsl_g line one\\nline \\\\ two" in text
        # The dump stays one-line-per-record despite the embedded \n.
        assert all(line for line in text.strip().split("\n"))

    def test_prometheus_exposition_matches_golden(self):
        # Exposition-format conformance pinned as a golden file: HELP
        # text escapes backslash/line-feed, label values additionally
        # escape the delimiting double quote.
        registry = MetricsRegistry()
        registry.counter(
            "dsl_escapes_total",
            'tricky help: backslash \\ and\nnewline', kind='quo"te').inc(2)
        registry.counter("dsl_escapes_total", "", kind="back\\slash").inc(1)
        registry.gauge("dsl_escape_gauge", "plain help",
                       path='C:\\trace\n"log"').set(1.5)
        registry.histogram("dsl_escape_seconds", "multi\nline \\ help",
                           buckets=(0.1,), branch='G="f0"').observe(0.05)
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "prometheus_escapes.txt")
        with open(golden) as fh:
            assert registry.render_prometheus() == fh.read()

    def test_text_and_dict_renderings(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="x").inc()
        registry.histogram("h").observe(0.001)
        data = registry.to_dict()
        assert data["counters"] == {'c{kind="x"}': 1.0}
        assert data["histograms"]["h"]["count"] == 1
        assert "counters:" in registry.render_text()
        assert MetricsRegistry().render_text() == "(no metrics recorded)"


# ----------------------------------------------------------------------
# events + exporters
# ----------------------------------------------------------------------
class TestEventsAndExport:
    def test_event_dict_round_trip(self):
        event = TraceEvent(seq=3, kind=PRUNE, at=1.0, elapsed_s=0.5,
                           payload={"survivors": 4}, duration_s=0.01,
                           span=2, parent=1)
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_jsonl_round_trip_through_file(self, tmp_path):
        rec = fake_recorder()
        rec.emit(REQUIRE, name="Width", value=64)
        with rec.span(PRUNE) as span:
            span.note(survivors=2)
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(rec.events, path) == 2
        back = read_jsonl(path)
        assert back == list(rec.events)

    def test_jsonl_round_trip_through_buffer(self):
        rec = fake_recorder()
        rec.emit(PRUNE, digest="abc")
        text = dumps_jsonl(rec.events)
        assert read_jsonl(io.StringIO(text)) == list(rec.events)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "kind": "prune", "at": 0.0, '
                        '"elapsed_s": 0.0}\nnot json\n')
        with pytest.raises(ObservabilityError, match="line 2"):
            read_jsonl(path)

    def test_unserializable_payload_degrades_to_repr(self):
        rec = fake_recorder()
        rec.emit(REQUIRE, name="Width", value={1, 2})
        line = dumps_jsonl(rec.events).strip()
        assert json.loads(line)["payload"]["value"] == repr({1, 2})

    def test_summarize_counts_and_cache_rate(self):
        rec = fake_recorder()
        rec.emit(REQUIRE)
        rec.emit(DECIDE)
        with rec.span(PRUNE):
            pass
        text = summarize(rec.events)
        assert "3 events" in text
        data = summarize_dict(rec.events)
        assert data["by_kind"][PRUNE] == 1
        assert summarize([]) == "(empty trace)"

    def test_timeline_orders_by_start_and_indents_children(self):
        rec = fake_recorder()
        with rec.span(PRUNE, cdo="Widget"):
            rec.emit(INDEX_REBUILD)
        lines = render_timeline(rec.events).splitlines()
        # span started first -> printed first despite later seq
        assert "prune" in lines[0]
        assert "index_rebuild" in lines[1]
        assert lines[1].split("] ")[1].startswith("  ")


# ----------------------------------------------------------------------
# layer.observe() and instrumented paths
# ----------------------------------------------------------------------
class TestLayerObserve:
    def test_default_is_shared_noop(self, widget_layer):
        assert widget_layer.observer is NULL_RECORDER
        assert widget_layer.libraries.observer is NULL_RECORDER

    def test_observe_enables_and_is_idempotent(self, widget_layer):
        rec = widget_layer.observe()
        assert rec.enabled
        assert widget_layer.observe() is rec
        assert widget_layer.libraries.observer is rec

    def test_observe_none_disables(self, widget_layer):
        widget_layer.observe()
        widget_layer.observe(None)
        assert widget_layer.observer is NULL_RECORDER
        assert widget_layer.libraries.observer is NULL_RECORDER

    def test_custom_recorder_installable(self, widget_layer):
        rec = fake_recorder()
        assert widget_layer.observe(rec) is rec
        assert widget_layer.observer is rec

    def test_attach_library_inherits_observer(self, widget_layer):
        from repro.core import DesignObject, ReuseLibrary
        rec = widget_layer.observe(fake_recorder())
        extra = ReuseLibrary("lib-b", "late attach")
        extra.add(DesignObject("late", "Widget.hw", {"Tech": "t35"}))
        widget_layer.attach_library(extra)
        # a late library is indexed (and traced) through the federation
        widget_layer.libraries.index()
        (rebuild,) = [e for e in rec.events if e.kind == INDEX_REBUILD]
        assert rebuild.payload["owner"] == "federation"
        assert rebuild.payload["cores"] == 6

    def test_index_rebuild_traced(self, widget_layer):
        rec = widget_layer.observe(fake_recorder())
        widget_layer.libraries.index()
        rebuilds = [e for e in rec.events if e.kind == INDEX_REBUILD]
        assert len(rebuilds) == 1
        assert rebuilds[0].payload["owner"] == "federation"
        assert rebuilds[0].payload["cores"] == 5
        # epoch unchanged -> no rebuild, no event
        widget_layer.libraries.index()
        assert sum(1 for e in rec.events if e.kind == INDEX_REBUILD) == 1

    def test_lint_run_traced(self, widget_layer):
        rec = widget_layer.observe(fake_recorder())
        report = widget_layer.lint()
        (event,) = [e for e in rec.events if e.kind == LINT_RUN]
        assert event.is_span
        assert event.payload["diagnostics"] == len(report)


class TestSessionTracing:
    def test_session_announces_once_with_state(self, widget_layer):
        rec = widget_layer.observe(fake_recorder())
        session = ExplorationSession(widget_layer, "Widget")
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        opens = [e for e in rec.events if e.kind == SESSION_OPEN]
        assert len(opens) == 1
        assert opens[0].payload["cdo"] == "Widget"
        assert opens[0].payload["requirements"] == {}

    def test_mid_session_enable_carries_accumulated_state(self, widget_layer):
        session = ExplorationSession(widget_layer, "Widget")
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        assert session.trace == ()
        rec = widget_layer.observe(fake_recorder())
        session.decide("Tech", "t35")
        (opened,) = [e for e in rec.events if e.kind == SESSION_OPEN]
        assert opened.payload["cdo"] == "Widget.hw"
        assert opened.payload["requirements"] == {"Width": 64}
        assert opened.payload["decisions"] == {"Style": "hw"}

    def test_mutation_events(self, widget_layer):
        rec = widget_layer.observe(fake_recorder())
        session = ExplorationSession(widget_layer, "Widget")
        session.set_requirement("Width", 64)
        session.checkpoint("base")
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        session.retract("Tech")
        session.undo()
        session.restore("base")
        kinds = [e.kind for e in session.trace]
        assert kinds.count(REQUIRE) == 1
        assert kinds.count(DECIDE) == 2
        assert kinds.count("retract") == 1
        assert kinds.count("undo") == 1
        assert kinds.count("checkpoint") == 1
        assert kinds.count("restore") == 1
        decide = next(e for e in rec.events if e.kind == DECIDE)
        assert decide.payload["issue"] == "Style"
        assert decide.payload["generalized"] is True
        assert decide.payload["cdo"] == "Widget.hw"

    def test_prune_span_carries_digest_and_ranges(self, widget_layer):
        rec = widget_layer.observe(fake_recorder())
        session = ExplorationSession(widget_layer, "Widget")
        session.set_requirement("Width", 64)
        report = session.prune_report()
        (prune,) = [e for e in rec.events if e.kind == PRUNE]
        assert prune.is_span
        assert prune.payload["survivors"] == len(report.survivors)
        assert prune.payload["digest"] == names_digest(report.survivor_names)
        assert "ranges" in prune.payload

    def test_failed_mutations_leave_no_event(self, widget_layer):
        from repro.errors import SessionError
        rec = widget_layer.observe(fake_recorder())
        session = ExplorationSession(widget_layer, "Widget")
        with pytest.raises(SessionError):
            session.undo()
        with pytest.raises(SessionError):
            session.retract("Width")
        assert [e.kind for e in rec.events] == [SESSION_OPEN]

    def test_constraint_and_estimator_spans_in_crypto(self, crypto_layer):
        from repro.domains.crypto import vocab as v
        rec = crypto_layer.observe(fake_recorder())
        try:
            session = ExplorationSession(crypto_layer, v.OMM_PATH)
            session.set_requirement(v.EOL, 768)
            session.set_requirement(v.MODULO_IS_ODD, v.GUARANTEED)
            session.decide(v.IMPLEMENTATION_STYLE, v.HARDWARE)
            session.decide(v.ALGORITHM, v.MONTGOMERY)
            fired = [e for e in rec.events if e.kind == CONSTRAINT_FIRED]
            estimates = [e for e in rec.events if e.kind == ESTIMATE_INVOKED]
            assert fired and all(e.is_span for e in fired)
            assert {e.payload["constraint"] for e in fired} >= {"CC1"}
            assert estimates and all(e.is_span for e in estimates)
            # estimator runs nest under the constraint that invoked them
            fired_ids = {e.span for e in fired}
            assert all(e.parent in fired_ids for e in estimates)
        finally:
            crypto_layer.observe(None)  # session-scoped fixture

    def test_session_trace_filters_other_sessions(self, widget_layer):
        widget_layer.observe(fake_recorder())
        one = ExplorationSession(widget_layer, "Widget")
        two = ExplorationSession(widget_layer, "Widget")
        one.set_requirement("Width", 64)
        two.set_requirement("Width", 32)
        assert all(e.payload.get("session", 1) == 1 for e in one.trace)
        assert all(e.payload.get("session", 2) == 2 for e in two.trace)
        assert any(e.kind == REQUIRE for e in one.trace)

    def test_large_survivor_sets_get_bounded_payloads(self, widget_layer,
                                                      monkeypatch):
        """Above TRACE_SET_LIMIT the digest/ranges payload is omitted
        (payload cost must not scale with the library); the survivor
        count is always recorded."""
        from repro.core import session as session_mod
        monkeypatch.setattr(session_mod, "TRACE_SET_LIMIT", 2)
        rec = widget_layer.observe(fake_recorder())
        session = ExplorationSession(widget_layer, "Widget")
        session.prune_report()   # 5 survivors > limit
        session.prune_report()
        prunes = [e for e in rec.events if e.kind == PRUNE]
        assert len(prunes) == 2
        for prune in prunes:
            assert prune.payload["survivors"] == 5
            assert "digest" not in prune.payload
            assert "ranges" not in prune.payload
        # the count alone still replays as a verified checkpoint
        from repro.core.obs import replay
        from conftest import build_widget_layer as rebuild
        report = replay.replay_trace(rebuild(), rec.events)
        assert report.ok and report.checks == 2
