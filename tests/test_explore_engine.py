"""The exploration engine against the widget and crypto layers."""

import pytest

from repro.core import EvaluationSpace, ExplorationProblem, ExplorationSession
from repro.core.explore import (
    ESTIMATED,
    ExplorationEngine,
    Outcome,
    ParetoFrontier,
    explore,
)
from repro.domains.crypto import (
    CASE_STUDY_ISSUES,
    case_study_session,
    crypto_exploration_problem,
)
from repro.domains.crypto import vocab as v
from repro.errors import ExplorationError

from conftest import build_widget_layer

METRICS = ("area", "latency_ns")


def widget_problem(layer, **overrides):
    kwargs = dict(start="Widget", metrics=METRICS, layer=layer)
    kwargs.update(overrides)
    return ExplorationProblem(**kwargs)


class TestWidgetExhaustive:
    def test_frontier_matches_manual_enumeration(self, widget_layer):
        result = explore(widget_problem(widget_layer))
        # The widget library is small enough to check by hand: h1/h2
        # trade area vs latency, h3 and both software cores are
        # dominated on (area, latency_ns) -- s1/s2 document no area at
        # all, so they sit at inf and lose to any complete hw core on
        # latency... except they don't: s1/s2 are *worse* on latency
        # too, hence dominated outright.
        cores = {o.core for o in result.frontier.outcomes()}
        assert cores == {"h1", "h2"}
        assert result.stats.terminals > 0
        assert result.stats.opened >= result.stats.expanded

    def test_requirement_prefix_narrows(self, widget_layer):
        result = explore(widget_problem(
            widget_layer, requirements={"MaxDelay": 100}))
        assert all("h" in o.core for o in result.frontier.outcomes())

    def test_infeasible_prefix_raises(self, widget_layer):
        problem = widget_problem(
            widget_layer, decisions=(("Style", "hw"), ("Lang", "c")))
        with pytest.raises(ExplorationError):
            explore(problem)

    def test_issue_order_respected(self, widget_layer):
        # Restricting the issue list restricts the walk; Tech-only
        # exploration terminates with Pipeline undecided.
        result = explore(widget_problem(
            widget_layer, decisions=(("Style", "hw"),), issues=("Tech",)))
        for outcome in result.frontier.outcomes():
            names = [name for name, _ in outcome.decisions]
            assert "Pipeline" not in names

    def test_max_depth_zero_evaluates_root(self, widget_layer):
        result = explore(widget_problem(widget_layer, max_depth=0))
        assert result.stats.terminals == 1


class TestEstimatorFallback:
    def test_empty_surviving_set_yields_estimated_outcome(self, widget_layer):
        # MaxDelay=1 excludes every library core; the estimator supplies
        # conceptual merits instead (the paper's early-design path).
        problem = widget_problem(
            widget_layer, requirements={"MaxDelay": 1}, max_depth=0,
            estimator=lambda session: {"area": 42.0, "latency_ns": 7.0})
        result = explore(problem)
        outcomes = result.frontier.outcomes()
        assert len(outcomes) == 1
        assert outcomes[0].core == ESTIMATED
        assert outcomes[0].estimated
        assert outcomes[0].merit_map() == {"area": 42.0, "latency_ns": 7.0}
        assert result.stats.evaluations == 1

    def test_without_estimator_empty_terminal_yields_nothing(
            self, widget_layer):
        problem = widget_problem(
            widget_layer, requirements={"MaxDelay": 1}, max_depth=0)
        result = explore(problem)
        assert len(result.frontier) == 0


class TestBranchAndBound:
    def test_bnb_equals_exhaustive_but_opens_fewer(self, crypto_layer):
        problem = crypto_exploration_problem(layer=crypto_layer)
        full = explore(problem, strategy="exhaustive")
        bnb = explore(problem, strategy="bnb")
        assert bnb.frontier.digest() == full.frontier.digest()
        assert bnb.stats.opened < full.stats.opened
        assert bnb.stats.expanded < full.stats.expanded
        assert bnb.stats.pruned.get("bound", 0) > 0

    def test_widget_bnb_matches_exhaustive(self, widget_layer):
        problem = widget_problem(widget_layer)
        assert explore(problem, strategy="bnb").frontier.digest() == \
            explore(problem, strategy="exhaustive").frontier.digest()


class TestCryptoCaseStudy:
    WALK = ((v.IMPLEMENTATION_STYLE, v.HARDWARE),
            (v.ALGORITHM, v.MONTGOMERY),
            (v.ADDER_IMPL, "Carry-Save"),
            (v.SLICE_WIDTH, 64))

    def manual_survivors(self, crypto_layer):
        session = case_study_session(crypto_layer)
        for name, option in self.WALK:
            session.decide(name, option)
        return session.candidates()

    def test_engine_reproduces_manual_walk(self, crypto_layer):
        """The acceptance walk: driving the engine down the Sec 5 path
        reproduces exactly the surviving-core set of the scripted
        session in examples/crypto_coprocessor.py."""
        survivors = self.manual_survivors(crypto_layer)
        problem = crypto_exploration_problem(layer=crypto_layer)
        # All case-study issues pre-decided -> the walk's terminal.
        terminal = explore(problem.with_prefix(*self.WALK), strategy="bnb")
        assert terminal.stats.terminals == 1
        assert terminal.stats.outcomes == len(survivors)
        # The frontier keeps the non-dominated subset of those cores.
        template = terminal.frontier.outcomes()[0]
        expected = ParetoFrontier(problem.metrics)
        for core in survivors:
            merits = tuple((m, float(core.merit(m)))
                           for m in problem.metrics if core.has_merit(m))
            expected.add(Outcome(template.decisions, template.cdo,
                                 core.name, merits))
        assert {o.core for o in terminal.frontier.outcomes()} == \
            {o.core for o in expected.outcomes()}

    def test_full_search_contains_walk_outcomes(self, crypto_layer):
        survivors = {c.name for c in self.manual_survivors(crypto_layer)}
        result = explore(crypto_exploration_problem(layer=crypto_layer),
                         strategy="bnb")
        walk = dict(self.WALK)
        for outcome in result.frontier.outcomes():
            decided = dict(outcome.decisions)
            if all(decided.get(k) == walk[k] for k in walk):
                assert outcome.core in survivors

    def test_issues_follow_case_study_order(self, crypto_layer):
        problem = crypto_exploration_problem(layer=crypto_layer)
        assert problem.issues == CASE_STUDY_ISSUES

    def test_pareto_matches_evaluation_space(self, crypto_layer):
        """Frontier cores at the walk's terminal == EvaluationSpace's
        Pareto set over the same survivors."""
        survivors = self.manual_survivors(crypto_layer)
        space = EvaluationSpace.from_designs(
            survivors, METRICS, skip_missing=True)
        expected = {d.name for d in space.pareto_frontier()}
        problem = crypto_exploration_problem(layer=crypto_layer)
        terminal = explore(problem.with_prefix(*self.WALK))
        assert {o.core for o in terminal.frontier.outcomes()} == expected


class TestIntegration:
    def test_layer_explore_facade(self, widget_layer):
        result = widget_layer.explore("Widget", strategy="bnb",
                                      metrics=METRICS)
        assert {o.core for o in result.frontier.outcomes()} == {"h1", "h2"}

    def test_engine_rejects_unknown_strategy(self, widget_layer):
        with pytest.raises(ExplorationError):
            ExplorationEngine(widget_problem(widget_layer),
                              strategy="simulated-annealing")

    def test_engine_rejects_a_retired_strategy(self, widget_layer):
        # The error names the strategies there are.
        with pytest.raises(ExplorationError,
                           match=r"'beam'; known: \['bnb', "
                                 r"'branch-and-bound', 'exhaustive'\]"):
            ExplorationEngine(widget_problem(widget_layer), strategy="beam")

    def test_trace_events_emitted(self):
        layer = build_widget_layer()
        layer.observe()
        explore(widget_problem(layer), strategy="bnb")
        kinds = {event.kind for event in layer.observer.events}
        assert "explore_start" in kinds
        assert "branch_open" in kinds
        assert "frontier_update" in kinds

    def test_trace_counts_metrics(self):
        layer = build_widget_layer()
        layer.observe()
        explore(widget_problem(layer))
        rendered = layer.observer.metrics.render_text()
        assert "dsl_explorations_total" in rendered
        assert "dsl_frontier_size" in rendered

    def test_session_fork_is_independent(self, widget_layer):
        session = ExplorationSession(widget_layer, "Widget",
                                     merit_metrics=METRICS)
        session.set_requirement("Width", 64)
        session.decide("Style", "hw")
        clone = session.fork()
        assert clone.decisions == session.decisions
        assert clone.requirement_values == session.requirement_values
        clone.decide("Tech", "t35")
        assert "Tech" not in session.decisions
        assert {c.name for c in clone.candidates()} <= \
            {c.name for c in session.candidates()}
