"""Stateful property testing of exploration sessions.

Hypothesis drives random sequences of session operations (requirements,
decisions, retractions, undos, checkpoints and restores, and layer edits
that add a constraint or register a tool) against the widget layer with
consistency constraints and checks the invariants the paper's workflow
depends on after every step:

* every decision/requirement binds a property visible from the current
  CDO, with a value its domain accepts;
* every surviving candidate core complies with every decision;
* pruning is sound: a core under the current CDO that complies with all
  decisions and requirements is *not* eliminated;
* a rejected mutation changes nothing, and undo is an exact inverse of
  the last mutation, derived values and eliminations included;
* derived values and eliminations equal a fresh evaluation's
  (``session.fork()``) once a step has run since the last layer edit.

The constraints are chain-free, as in the crypto and IDCT layers: no
derived property is another constraint's independent.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    ConsistencyConstraint,
    EliminateOptions,
    ExplorationSession,
    Formula,
    InconsistentOptions,
    SessionBinding,
)
from repro.core.properties import DesignIssue, Requirement
from repro.errors import ReproError

from conftest import build_widget_layer

_REQUIREMENT_VALUES = {
    "Width": [16, 32, 64, 128],
    "MaxDelay": [5, 10, 25, 1000, 5000],
}

_ISSUE_OPTIONS = {
    "Style": ["hw", "sw"],
    "Tech": ["t35", "t70"],
    "Pipeline": [1, 2, 4],
    "Lang": ["asm", "c"],
}


_CHECKPOINT_TAGS = ["a", "b"]


def build_constrained_layer():
    """The widget layer with one constraint of each kind the session
    evaluates: an inconsistency, a formula, an elimination and one bound
    to the session itself (which sees a decision only once committed)."""
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
    layer.add_constraint(ConsistencyConstraint(
        "CC-e", "tight delays rule out C",
        independents={"D": "MaxDelay@Widget"},
        dependents={"L": "Lang@Widget.sw"},
        relation=EliminateOptions(
            lambda b: [("Lang", "c")] if b["D"] < 1000 else [],
            "C is too slow under 1000 ns", requires=("D",))))
    layer.add_constraint(ConsistencyConstraint(
        "CC-s", "t35 only early in the session",
        independents={"N": SessionBinding(
            lambda s: len(s.decisions), "decision count")},
        dependents={"T": "Tech@Widget.hw"},
        relation=InconsistentOptions(
            lambda b: b["T"] == "t35" and b["N"] >= 3,
            "no t35 with three decisions", requires=("N", "T"))))
    return layer


#: Constraints a layer-edit rule adds, one at a time.
_LATE_CONSTRAINTS = [
    ConsistencyConstraint(
        "CC-x", "narrow widgets do not pipeline deeply",
        independents={"W": "Width@Widget"},
        dependents={"P": "Pipeline@Widget.hw"},
        relation=EliminateOptions(
            lambda b: [("Pipeline", 4)] if b["W"] < 64 else [],
            "depth 4 needs width 64", requires=("W",))),
    ConsistencyConstraint(
        "CC-y", "assembly only for loose delays",
        independents={"D": "MaxDelay@Widget"},
        dependents={"L": "Lang@Widget.sw"},
        relation=InconsistentOptions(
            lambda b: b["L"] == "asm" and b["D"] < 10,
            "asm misses delays under 10 ns", requires=("D", "L"))),
]


class SessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.layer = build_constrained_layer()
        self.session = ExplorationSession(self.layer, "Widget")
        #: Shadow undo history: the full state before each mutation.
        self.before = []
        #: Shadow named checkpoints.
        self.saved = {}
        self.late = list(_LATE_CONSTRAINTS)
        self.tools = 0
        #: False from a layer edit until the session's next step.
        self.fresh = True

    def _mutate(self, step):
        before = self._snapshot()
        try:
            step()
        except ReproError:
            self._assert_state(before)  # a rejected step changes nothing
            return
        self.before.append(before)
        self.fresh = True

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(name=st.sampled_from(sorted(_REQUIREMENT_VALUES)),
          index=st.integers(min_value=0, max_value=4))
    def set_requirement(self, name, index):
        values = _REQUIREMENT_VALUES[name]
        value = values[index % len(values)]
        self._mutate(lambda: self.session.set_requirement(name, value))

    @rule(name=st.sampled_from(sorted(_ISSUE_OPTIONS)),
          index=st.integers(min_value=0, max_value=3))
    def decide(self, name, index):
        options = _ISSUE_OPTIONS[name]
        option = options[index % len(options)]
        self._mutate(lambda: self.session.decide(name, option))

    @rule(name=st.sampled_from(sorted(_ISSUE_OPTIONS)
                               + sorted(_REQUIREMENT_VALUES)))
    def retract(self, name):
        self._mutate(lambda: self.session.retract(name))

    @precondition(lambda self: self.before)
    @rule()
    def undo(self):
        self.session.undo()
        self.fresh = True
        self._assert_state(self.before.pop())

    @rule(tag=st.sampled_from(_CHECKPOINT_TAGS))
    def checkpoint(self, tag):
        self.session.checkpoint(tag)
        self.saved[tag] = self._snapshot()

    @rule(tag=st.sampled_from(_CHECKPOINT_TAGS))
    def restore(self, tag):
        if tag not in self.saved:
            return
        self._mutate(lambda: self.session.restore(tag))
        expected = dict(self.saved[tag])
        expected["log"] += (f"restored checkpoint {tag!r}",)
        self._assert_state(expected)

    @precondition(lambda self: self.late)
    @rule()
    def add_constraint(self):
        self.layer.add_constraint(self.late.pop(0))
        self.fresh = False

    @rule()
    def register_tool(self):
        self.tools += 1
        self.layer.register_tool(f"tool{self.tools}", lambda **kw: 0.0)
        self.fresh = False

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _snapshot(self, session=None):
        """The session's observable state.  ``epoch`` is the layer epoch
        its derived values and eliminations are known to be current at,
        None while a layer edit has not been followed by a step."""
        session = self.session if session is None else session
        return {
            "cdo": session.current_cdo.qualified_name,
            "decisions": dict(session.decisions),
            "requirements": list(session.requirement_values.items()),
            "stale": session.stale_properties,
            "log": session.log,
            "derived": dict(session.derived_values),
            "eliminations": {issue: session.eliminations_for(issue)
                             for issue in _ISSUE_OPTIONS},
            "epoch": self.layer.epoch if self.fresh else None,
        }

    def _assert_state(self, expected):
        """The session is back at ``expected``; its constraint results
        too when they were current at today's epoch (otherwise they are
        evaluated afresh, which ``matches_a_fresh_evaluation`` checks)."""
        actual = self._snapshot()
        skip = {"epoch"}
        if expected["epoch"] is None or expected["epoch"] != actual["epoch"]:
            skip |= {"derived", "eliminations"}
        for key in set(actual) - skip:
            assert actual[key] == expected[key], key

    @invariant()
    def matches_a_fresh_evaluation(self):
        if not self.fresh:
            return
        fresh = self._snapshot(self.session.fork())
        actual = self._snapshot()
        assert actual["derived"] == fresh["derived"]
        assert actual["eliminations"] == fresh["eliminations"]

    @invariant()
    def bindings_are_visible_and_valid(self):
        cdo = self.session.current_cdo
        context = self.session.context()
        for name, option in self.session.decisions.items():
            prop = cdo.find_property(name)
            assert isinstance(prop, DesignIssue)
            prop.validate(option, context)
        for name, value in self.session.requirement_values.items():
            prop = cdo.find_property(name)
            assert isinstance(prop, Requirement)

    @invariant()
    def candidates_comply_with_decisions(self):
        for core in self.session.candidates():
            for name, option in self.session.decisions.items():
                prop = self.session.current_cdo.find_property(name)
                if isinstance(prop, DesignIssue) and prop.generalized:
                    continue
                assert core.property_value(name) == option

    @invariant()
    def pruning_is_sound(self):
        report = self.session.prune_report()
        survivors = {c.name for c in report.survivors}
        cdo_name = self.session.current_cdo.qualified_name
        for core in self.session.layer.cores_under(cdo_name):
            complies = True
            for name, option in self.session.decisions.items():
                prop = self.session.current_cdo.find_property(name)
                if isinstance(prop, DesignIssue) and prop.generalized:
                    continue
                if core.property_value(name) != option:
                    complies = False
            for name, value in self.session.requirement_values.items():
                prop = self.session.current_cdo.find_property(name)
                documented = core.property_value(name) \
                    if core.has_property(name) else core.merit_or_none(name)
                if documented is not None and \
                        not prop.satisfied_by(documented, value):
                    complies = False
            if complies and core.has_property(
                    next(iter(self.session.decisions), "")) or complies \
                    and not self.session.decisions:
                assert core.name in survivors, core.name

    @invariant()
    def cdo_consistent_with_generalized_decisions(self):
        node = self.session.current_cdo
        while node.parent is not None:
            issue = node.parent.generalized_issue
            assert issue is not None
            assert self.session.decisions.get(issue.name) == \
                node.option_of_parent
            node = node.parent


TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
