"""Session edge cases beyond the main workflow tests."""

import pytest

from repro.core import (
    ConsistencyConstraint,
    EstimatorInvocation,
    ExplorationSession,
    MissingPolicy,
)
from repro.errors import SessionError

from conftest import build_widget_layer


class TestContextPrecedence:
    def test_decisions_shadow_requirements_and_derived(self):
        session = ExplorationSession(build_widget_layer(), "Widget")
        session.set_requirement("Width", 64)
        context = session.context()
        assert context["Width"] == 64
        session.decide("Style", "hw")
        assert session.context()["Style"] == "hw"


class TestEstimatorThroughLayer:
    def test_tool_invoked_on_binding_completion(self):
        layer = build_widget_layer()
        calls = []

        def tool(bindings):
            calls.append(dict(bindings))
            return 42.0

        layer.register_tool("probe", tool)
        layer.add_constraint(ConsistencyConstraint(
            "CC-est", "probe estimation context",
            independents={"W": "Width@Widget"},
            dependents={"E": "MaxDelay@Widget"},
            relation=EstimatorInvocation("E", "probe", "E = probe(W)",
                                         requires=("W",))))
        session = ExplorationSession(layer, "Widget")
        assert session.derived_values == {}
        session.set_requirement("Width", 64)
        assert session.derived_values["MaxDelay"] == 42.0
        assert calls and calls[-1]["W"] == 64

    def test_unregistered_tool_leaves_constraint_pending(self):
        layer = build_widget_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC-missing", "references a tool nobody registered",
            independents={"W": "Width@Widget"},
            dependents={"E": "MaxDelay@Widget"},
            relation=EstimatorInvocation("E", "ghost-tool", "E = ghost(W)",
                                         requires=("W",))))
        session = ExplorationSession(layer, "Widget")
        # The evaluation raises ConstraintError internally; the session
        # treats the constraint as pending — exploration continues, no
        # derived value appears, nothing crashes.
        session.set_requirement("Width", 64)
        assert "MaxDelay" not in session.derived_values


class TestWhatIfViaPruneReport:
    def test_elimination_reasons_exposed(self):
        session = ExplorationSession(build_widget_layer(), "Widget")
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        report = session.prune_report()
        assert "t70" in report.eliminated["h3"]


class TestStaleLifecycle:
    def test_redeciding_clears_staleness(self, widget_layer):
        from repro.core import Formula
        widget_layer.add_constraint(ConsistencyConstraint(
            "CC-s", "tech depends on width",
            independents={"W": "Width@Widget"},
            dependents={"T": "Tech@Widget.hw"},
            relation=Formula("Hint", lambda b: "t35", "hint",
                             requires=("W",))))
        session = ExplorationSession(widget_layer, "Widget")
        session.set_requirement("Width", 16)
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        session.revise("Width", 32)
        assert "Tech" in session.stale_properties
        session.revise("Tech", "t35")  # re-deciding re-validates
        assert "Tech" not in session.stale_properties


class TestMeritMetricsConfig:
    def test_custom_metrics_reported(self):
        session = ExplorationSession(build_widget_layer(), "Widget",
                                     merit_metrics=("MaxDelay",))
        session.decide("Style", "sw")
        ranges = session.fom_ranges()
        assert set(ranges) == {"MaxDelay"}

    def test_explicit_metric_override(self):
        session = ExplorationSession(build_widget_layer(), "Widget")
        session.decide("Style", "hw")
        ranges = session.fom_ranges(metrics=("area",))
        assert set(ranges) == {"area"}


class TestStartPositions:
    def test_start_at_leaf(self, widget_layer):
        session = ExplorationSession(widget_layer, "Widget.hw")
        assert len(session.candidates()) == 3
        session.decide("Tech", "t70")
        assert [c.name for c in session.candidates()] == ["h3"]

    def test_start_object_instead_of_name(self, widget_layer):
        cdo = widget_layer.cdo("Widget.sw")
        session = ExplorationSession(widget_layer, cdo)
        assert session.current_cdo is cdo

    def test_include_policy_end_to_end(self, widget_layer):
        session = ExplorationSession(widget_layer, "Widget",
                                     missing_policy=MissingPolicy.INCLUDE)
        session.decide("Style", "hw")
        session.decide("Pipeline", 4)  # nobody documents 4
        # EXCLUDE would empty the space; INCLUDE keeps undocumented...
        # but all three hw cores document Pipeline (1 or 2), so they
        # are genuinely eliminated either way.
        assert session.candidates() == []
