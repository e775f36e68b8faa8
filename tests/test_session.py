"""Exploration sessions: the conceptual-design workflow."""

import pytest

from repro.core import (
    ConsistencyConstraint,
    DesignIssue,
    EliminateOptions,
    EnumDomain,
    ExplorationSession,
    Formula,
    InconsistentOptions,
    MissingPolicy,
    SessionBinding,
)
from repro.errors import ConstraintViolation, SessionError

from conftest import build_widget_layer


@pytest.fixture()
def session(widget_layer):
    return ExplorationSession(widget_layer, "Widget",
                              merit_metrics=("area", "latency_ns"))


class TestRequirements:
    def test_set_and_read(self, session):
        session.set_requirement("Width", 64)
        assert session.requirement_values == {"Width": 64}

    def test_domain_validated(self, session):
        with pytest.raises(Exception):
            session.set_requirement("Width", 1000)

    def test_requirement_prunes(self, session):
        session.set_requirement("MaxDelay", 100)
        assert sorted(c.name for c in session.candidates()) == \
            ["h1", "h2", "h3"]

    def test_cannot_decide_requirement(self, session):
        with pytest.raises(SessionError, match="not a design issue"):
            session.decide("Width", 64)

    def test_cannot_set_issue_as_requirement(self, session):
        with pytest.raises(SessionError, match="not a requirement"):
            session.set_requirement("Style", "hw")


class TestDecisions:
    def test_generalized_decision_descends(self, session):
        session.decide("Style", "hw")
        assert session.current_cdo.qualified_name == "Widget.hw"
        assert session.decisions == {"Style": "hw"}

    def test_candidates_narrow_with_decisions(self, session):
        session.decide("Style", "hw")
        assert len(session.candidates()) == 3
        session.decide("Tech", "t35")
        assert sorted(c.name for c in session.candidates()) == ["h1", "h2"]
        session.decide("Pipeline", 2)
        assert [c.name for c in session.candidates()] == ["h2"]

    def test_invalid_option_rejected(self, session):
        with pytest.raises(Exception):
            session.decide("Style", "firmware")

    def test_issue_from_other_branch_invisible(self, session):
        session.decide("Style", "sw")
        with pytest.raises(Exception):
            session.decide("Tech", "t35")

    def test_log_records_actions(self, session):
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        assert any("Width" in line for line in session.log)
        assert any("specialized" in line for line in session.log)


class TestUndoRetract:
    def test_undo_requirement(self, session):
        session.set_requirement("Width", 64)
        session.undo()
        assert session.requirement_values == {}

    def test_undo_generalized_decision_restores_cdo(self, session):
        session.decide("Style", "hw")
        session.undo()
        assert session.current_cdo.qualified_name == "Widget"
        assert session.decisions == {}

    def test_undo_empty_history(self, session):
        with pytest.raises(SessionError, match="nothing to undo"):
            session.undo()

    def test_undo_stack_depth(self, session):
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        session.undo()
        session.undo()
        assert session.decisions == {}
        assert session.requirement_values == {"Width": 64}

    def test_retract_requirement(self, session):
        session.set_requirement("Width", 64)
        session.retract("Width")
        assert session.requirement_values == {}

    def test_retract_generalized_ascends_and_drops_deeper(self, session):
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        session.retract("Style")
        assert session.current_cdo.qualified_name == "Widget"
        assert "Tech" not in session.decisions
        assert "Style" not in session.decisions

    def test_retract_unaddressed(self, session):
        with pytest.raises(SessionError, match="not been addressed"):
            session.retract("Style")

    def test_revise_non_generalized(self, session):
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        session.revise("Tech", "t70")
        assert session.decisions["Tech"] == "t70"
        assert [c.name for c in session.candidates()] == ["h3"]

    def test_revise_generalized_refused(self, session):
        session.decide("Style", "hw")
        with pytest.raises(SessionError, match="retract"):
            session.revise("Style", "sw")

    def test_revise_unaddressed(self, session):
        with pytest.raises(SessionError):
            session.revise("Tech", "t35")


class TestOptionsAndRanges:
    def test_available_options_counts(self, session):
        infos = {i.option: i for i in session.available_options("Style")}
        assert infos["hw"].candidate_count == 3
        assert infos["sw"].candidate_count == 2

    def test_generalized_option_ranges(self, session):
        infos = {i.option: i for i in session.available_options("Style")}
        assert infos["hw"].ranges["area"] == (100.0, 260.0)

    def test_what_if_does_not_commit(self, session):
        session.decide("Style", "hw")
        session.available_options("Tech")
        assert "Tech" not in session.decisions

    def test_fom_ranges(self, session):
        session.decide("Style", "hw")
        ranges = session.fom_ranges()
        assert ranges["latency_ns"] == (6.0, 22.0)

    def test_addressable_issues(self, session):
        names = {i.name for i in session.addressable_issues()}
        assert names == {"Style"}
        session.decide("Style", "hw")
        names = {i.name for i in session.addressable_issues()}
        assert names == {"Tech", "Pipeline"}

    def test_options_on_requirement_rejected(self, session):
        with pytest.raises(SessionError):
            session.available_options("Width")


class TestConstraintIntegration:
    def make_layer_with_cc(self):
        layer = build_widget_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC-w", "t70 requires width <= 32",
            independents={"W": "Width@Widget"},
            dependents={"T": "Tech@Widget.hw"},
            relation=InconsistentOptions(
                lambda b: b["T"] == "t70" and b["W"] > 32,
                "t70 only supports narrow widgets", requires=("W", "T"))))
        layer.add_constraint(ConsistencyConstraint(
            "CC-d", "derive depth hint",
            independents={"W": "Width@Widget"},
            dependents={"P": "Pipeline@Widget.hw"},
            relation=Formula("P", lambda b: 2 if b["W"] > 32 else 1,
                             "depth = f(width)", requires=("W",))))
        return layer

    def test_issue_blocked_until_independents_set(self):
        session = ExplorationSession(self.make_layer_with_cc(), "Widget")
        session.decide("Style", "hw")
        with pytest.raises(SessionError, match="ordered after"):
            session.decide("Tech", "t35")
        session.set_requirement("Width", 16)
        session.decide("Tech", "t35")

    def test_violation_rejects_decision_atomically(self):
        session = ExplorationSession(self.make_layer_with_cc(), "Widget")
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        with pytest.raises(ConstraintViolation, match="narrow"):
            session.decide("Tech", "t70")
        assert "Tech" not in session.decisions
        session.decide("Tech", "t35")

    def test_formula_derives_value(self):
        session = ExplorationSession(self.make_layer_with_cc(), "Widget")
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        assert session.derived_values.get("Pipeline") == 2

    def test_revising_independent_marks_dependent_stale(self):
        session = ExplorationSession(self.make_layer_with_cc(), "Widget")
        session.set_requirement("Width", 16)
        session.decide("Style", "hw")
        session.decide("Tech", "t70")
        session.revise("Width", 32)
        assert "Tech" in session.stale_properties
        session.acknowledge("Tech")
        assert "Tech" not in session.stale_properties

    def test_acknowledge_requires_stale(self):
        session = ExplorationSession(self.make_layer_with_cc(), "Widget")
        with pytest.raises(SessionError):
            session.acknowledge("Tech")

    def test_revision_violating_cc_rolls_back(self):
        session = ExplorationSession(self.make_layer_with_cc(), "Widget")
        session.set_requirement("Width", 16)
        session.set_requirement("MaxDelay", 1000)
        session.decide("Style", "hw")
        session.decide("Tech", "t70")
        with pytest.raises(ConstraintViolation):
            session.revise("Width", 64)
        assert list(session.requirement_values.items()) == \
            [("Width", 16), ("MaxDelay", 1000)]

    def test_pending_constraints_listed(self):
        session = ExplorationSession(self.make_layer_with_cc(), "Widget")
        session.decide("Style", "hw")
        names = {c.name for c in session.pending_constraints()}
        assert names == {"CC-w", "CC-d"}

    def test_session_binding_alias(self):
        layer = build_widget_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC-s", "session-bound alias",
            independents={"N": SessionBinding(
                lambda s: len(s.decisions), "decision count")},
            dependents={"T": "Tech@Widget.hw"},
            relation=InconsistentOptions(
                lambda b: b["T"] == "t70" and b["N"] > 1,
                "no t70 late in the session", requires=("N", "T"))))
        session = ExplorationSession(layer, "Widget")
        session.decide("Style", "hw")
        session.decide("Pipeline", 2)
        with pytest.raises(ConstraintViolation):
            session.decide("Tech", "t70")

    def test_decision_rejected_once_committed_leaves_no_trace(self):
        """A binding that reads the session sees a decision only once it
        is in force; the rejection must still undo it completely."""
        layer = build_widget_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC-s", "session-bound alias",
            independents={"N": SessionBinding(
                lambda s: len(s.decisions), "decision count")},
            dependents={"T": "Tech@Widget.hw"},
            relation=InconsistentOptions(
                lambda b: b["T"] == "t70" and b["N"] > 2,
                "no t70 as a third decision", requires=("N", "T"))))
        session = ExplorationSession(layer, "Widget")
        session.decide("Style", "hw")
        session.decide("Pipeline", 2)
        log, derived = session.log, session.derived_values
        with pytest.raises(ConstraintViolation, match="third decision"):
            session.decide("Tech", "t70")
        assert session.decisions == {"Style": "hw", "Pipeline": 2}
        assert session.log == log
        assert session.derived_values == derived
        session.undo()
        assert session.decisions == {"Style": "hw"}
        session.undo()
        with pytest.raises(SessionError, match="nothing to undo"):
            session.undo()

    def test_relation_error_rolls_the_step_back(self):
        """A relation that raises (here a division by zero) rejects the
        step as a violation does: nothing of it stays in force."""
        layer = build_widget_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC-z", "latency share per technology",
            independents={"W": "Width@Widget"},
            dependents={"T": "Tech@Widget.hw"},
            relation=Formula("Share", lambda b: b["W"] // (b["T"] != "t70"),
                             "width per fast-technology lane",
                             requires=("W", "T"))))
        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 16)
        session.decide("Style", "hw")
        state = (session.decisions, session.requirement_values,
                 session.log, session.derived_values)
        with pytest.raises(ZeroDivisionError):
            session.decide("Tech", "t70")
        assert (session.decisions, session.requirement_values,
                session.log, session.derived_values) == state
        session.decide("Tech", "t35")
        assert session.derived_values == {"Share": 16}
        for _ in range(3):
            session.undo()
        with pytest.raises(SessionError, match="nothing to undo"):
            session.undo()

    def test_undo_after_a_layer_edit_evaluates_afresh(self):
        """A snapshot taken after the layer changed, but before the
        session re-evaluated its constraints, holds stale results; undo
        and restore must not put those back."""
        layer = build_widget_layer()
        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 16)
        session.decide("Style", "hw")
        layer.add_constraint(ConsistencyConstraint(
            "CC-x", "narrow widgets do not pipeline deeply",
            independents={"W": "Width@Widget"},
            dependents={"P": "Pipeline@Widget.hw"},
            relation=EliminateOptions(
                lambda b: [("Pipeline", 4)] if b["W"] < 64 else [],
                "depth 4 needs width 64", requires=("W",))))
        session.checkpoint("edited")
        session.decide("Tech", "t35")
        eliminated = [(4, "CC-x: narrow widgets do not pipeline deeply")]
        assert session.eliminations_for("Pipeline") == eliminated
        session.undo()
        assert session.eliminations_for("Pipeline") == eliminated
        session.decide("Tech", "t35")
        session.restore("edited")
        assert session.eliminations_for("Pipeline") == eliminated

    def test_reads_after_a_layer_edit_see_the_edited_layer(self):
        """A constraint added between two steps eliminates at once: the
        options, the eliminations and decide() all see it, and so do the
        derived values of a formula added the same way."""
        layer = build_widget_layer()
        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 16)
        session.decide("Style", "hw")
        layer.add_constraint(ConsistencyConstraint(
            "CC-x", "narrow widgets do not pipeline deeply",
            independents={"W": "Width@Widget"},
            dependents={"P": "Pipeline@Widget.hw"},
            relation=EliminateOptions(
                lambda b: [("Pipeline", 4)] if b["W"] < 64 else [],
                "depth 4 needs width 64", requires=("W",))))
        reason = "CC-x: narrow widgets do not pipeline deeply"
        assert session.eliminations_for("Pipeline") == [(4, reason)]
        options = {info.option: info
                   for info in session.available_options("Pipeline")}
        assert options[4].eliminated
        assert options[4].elimination_reason == reason
        with pytest.raises(ConstraintViolation, match="was eliminated"):
            session.decide("Pipeline", 4)
        assert session.decisions == {"Style": "hw"}
        layer.add_constraint(ConsistencyConstraint(
            "CC-d", "delay budget from the width",
            independents={"W": "Width@Widget"},
            dependents={"D": "MaxDelay@Widget"},
            relation=Formula("D", lambda b: 2 * b["W"], "twice the width",
                             requires=("W",))))
        assert session.derived_values == {"MaxDelay": 32}
        assert session.context()["MaxDelay"] == 32

    def test_a_binding_that_reads_the_session_after_a_layer_edit(self):
        layer = build_widget_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC-s", "reads the session's context",
            independents={"N": SessionBinding(
                lambda s: len(s.context()), "context size")},
            dependents={"P": "Pipeline@Widget.hw"},
            relation=EliminateOptions(
                lambda b: [("Pipeline", 4)] if b["N"] > 1 else [],
                "deep pipelines late", requires=("N",))))
        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 16)
        session.decide("Style", "hw")
        layer.register_tool("noop", lambda: None)
        assert [option for option, _ in
                session.eliminations_for("Pipeline")] == [4]

    def test_a_binding_that_reads_the_session_starts_no_second_pass(self):
        """Each pass evaluates the relation once, also the passes that
        no read started: opening, restoring across a layer edit, and
        a read after one."""
        passes = []
        layer = build_widget_layer()
        layer.add_constraint(ConsistencyConstraint(
            "CC-s", "reads the session's context",
            independents={"N": SessionBinding(
                lambda s: len(s.context()), "context size")},
            dependents={"D": "MaxDelay@Widget"},
            relation=Formula("D", lambda b: passes.append(b["N"]) or 1,
                             "one", requires=("N",))))
        session = ExplorationSession(layer, "Widget")
        assert passes == [0]
        session.checkpoint("opened")
        layer.register_tool("noop", lambda: None)
        session.restore("opened")
        assert passes == [0, 1]
        layer.register_tool("other", lambda: None)
        assert session.eliminations_for("Pipeline") == []
        assert passes == [0, 1, 1]


class TestMissingPolicy:
    def test_include_policy_keeps_undocumented(self, widget_layer):
        session = ExplorationSession(widget_layer, "Widget",
                                     missing_policy=MissingPolicy.INCLUDE)
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        assert len(session.candidates()) == 2


class TestReport:
    def test_report_mentions_state(self, session):
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        text = session.report()
        assert "Widget.hw" in text
        assert "Width = 64" in text
        # h3 only supports 32 bits, so the 64-bit requirement leaves 2.
        assert "candidate cores: 2" in text


class TestExplain:
    def test_survivor(self, session):
        session.decide("Style", "hw")
        assert "survives" in session.explain("h1")

    def test_eliminated_with_reason(self, session):
        session.decide("Style", "hw")
        session.decide("Tech", "t35")
        explanation = session.explain("h3")
        assert "eliminated" in explanation and "t70" in explanation

    def test_outside_region(self, session):
        session.decide("Style", "hw")
        assert "not indexed" in session.explain("s1")
