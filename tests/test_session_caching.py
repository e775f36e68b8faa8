"""Session query freshness and the sibling-branch decide regression.

* ``decide()`` on a generalized ancestor issue that selects a *sibling*
  branch must roll the whole session state back before raising — the
  constraint pass run with the decision must not leak derived values,
  eliminations, staleness or log entries into subsequent queries.
* ``report()`` / ``fom_ranges()`` / ``candidates()`` prune the layer's
  current index on every call: repeated queries agree, and every
  session or library mutation shows in the next answer.
"""

import pytest

from repro.core import (
    ConsistencyConstraint,
    DesignObject,
    ExplorationSession,
    Formula,
)
from repro.core.obs import PRUNE
from repro.errors import SessionError

from conftest import build_widget_layer


def layer_with_style_formula():
    """A widget layer whose constraint derives from the generalized
    ``Style`` issue — so a rejected sibling decide has visible
    constraint side effects to roll back."""
    layer = build_widget_layer()
    layer.add_constraint(ConsistencyConstraint(
        "CC-style", "pipeline hint follows style",
        independents={"S": "Style@Widget"},
        dependents={"P": "Pipeline@Widget.hw"},
        relation=Formula("P", lambda b: 4 if b["S"] == "sw" else 1,
                         "depth = f(style)", requires=("S",))))
    return layer


class TestSiblingBranchDecideRegression:
    def make_session(self):
        # Start *inside* the hw branch without Style recorded as a
        # decision — the only way to reach the sibling-branch guard.
        return ExplorationSession(layer_with_style_formula(), "Widget.hw")

    def test_sibling_decide_raises(self):
        session = self.make_session()
        with pytest.raises(SessionError, match="inside Widget.hw"):
            session.decide("Style", "sw")

    def test_state_fully_rolled_back(self):
        session = self.make_session()
        decisions = dict(session.decisions)
        derived = dict(session.derived_values)
        stale = set(session.stale_properties)
        log = list(session.log)
        candidates = session.candidates()
        with pytest.raises(SessionError):
            session.decide("Style", "sw")
        assert dict(session.decisions) == decisions
        assert "Style" not in session.decisions
        # The constraint pass run with Style=sw derived P=4; the
        # rollback must discard it.
        assert dict(session.derived_values) == derived
        assert set(session.stale_properties) == stale
        assert list(session.log) == log
        assert session.current_cdo.qualified_name == "Widget.hw"
        assert session.candidates() == candidates

    def test_failed_decide_leaves_no_undo_frame(self):
        session = self.make_session()
        with pytest.raises(SessionError):
            session.decide("Style", "sw")
        # The checkpoint taken for the rejected decision must have been
        # consumed by the rollback: nothing is left to undo.
        with pytest.raises(SessionError):
            session.undo()

    def test_session_still_usable_after_rejection(self):
        session = self.make_session()
        with pytest.raises(SessionError):
            session.decide("Style", "sw")
        session.decide("Tech", "t35")
        assert [c.name for c in session.candidates()] == ["h1", "h2"]

    def test_on_path_redundant_decide_still_accepted(self):
        session = self.make_session()
        session.decide("Style", "hw")
        assert session.decisions["Style"] == "hw"
        assert session.current_cdo.qualified_name == "Widget.hw"


def names(session):
    return [core.name for core in session.candidates()]


def answers(session):
    """Everything a designer can read off the current state, next to
    what a new session holding the same state answers."""
    twin = session.fork()
    return ((names(session), session.fom_ranges()),
            (names(twin), twin.fom_ranges()))


class TestPruneCallCounter:
    """Prunes are counted from the ``prune`` spans of the layer's trace;
    with no session-level memo, each query prunes afresh and each
    mutation must show in the next answer."""

    def test_report_triggers_exactly_one_prune(self):
        layer = build_widget_layer()
        layer.observe()
        session = ExplorationSession(layer, "Widget")
        session.report()
        assert sum(1 for e in session.trace if e.kind == PRUNE) == 1

    def test_repeated_queries_are_equal(self):
        session = ExplorationSession(build_widget_layer(), "Widget")
        session.decide("Style", "hw")

        def read():
            return (session.report(), names(session), session.fom_ranges(),
                    session.explain("h3"), session.prune_report().digest())

        assert read() == read()

    def test_decision_invalidates(self):
        session = ExplorationSession(build_widget_layer(), "Widget")
        assert len(names(session)) == 5
        session.decide("Style", "hw")
        got, fresh = answers(session)
        assert got == fresh
        assert got[0] == ["h1", "h2", "h3"]
        session.decide("Tech", "t70")
        got, fresh = answers(session)
        assert got == fresh
        assert got[0] == ["h3"]

    def test_requirement_invalidates(self):
        session = ExplorationSession(build_widget_layer(), "Widget")
        session.decide("Style", "hw")
        session.set_requirement("Width", 64)
        got, fresh = answers(session)
        assert got == fresh
        assert got[0] == ["h1", "h2"]
        session.revise("Width", 32)
        got, fresh = answers(session)
        assert got == fresh
        assert got[0] == ["h1", "h2", "h3"]

    def test_library_mutation_invalidates(self):
        layer = build_widget_layer()
        session = ExplorationSession(layer, "Widget")
        session.decide("Style", "hw")
        before = session.fom_ranges()
        layer.libraries.library("lib-a").add(DesignObject(
            "h9", "Widget.hw", {"Tech": "t35"}, {"area": 1.0}))
        got, fresh = answers(session)
        assert got == fresh
        assert "h9" in got[0]
        assert got[1]["area"] == (1.0, before["area"][1])
        layer.libraries.library("lib-a").remove("h9")
        assert session.fom_ranges() == before

    def test_undo_and_restore_hit_fresh_state(self):
        session = ExplorationSession(build_widget_layer(), "Widget")
        session.checkpoint("start")
        before = session.candidates()
        session.decide("Style", "hw")
        session.candidates()
        session.undo()
        assert session.candidates() == before
        session.decide("Style", "sw")
        session.restore("start")
        assert session.candidates() == before
