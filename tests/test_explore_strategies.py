"""Strategy equivalence and determinism.

The load-bearing property: branch-and-bound prunes with *optimistic*
merit bounds and a *strict*-dominance test, so on any hierarchy it must
return byte-for-byte the same Pareto frontier as exhaustive
enumeration.  Hypothesis generates small random layers to probe it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClassOfDesignObjects,
    DesignObject,
    DesignSpaceLayer,
    ExplorationProblem,
    ReuseLibrary,
)
from repro.core.explore import (
    STRATEGIES,
    BeamStrategy,
    BranchAndBoundStrategy,
    EvolutionaryStrategy,
    ExhaustiveStrategy,
    explore,
    make_strategy,
)
from repro.core.explore.engine import SearchContext
from repro.errors import ExplorationError

from conftest import build_widget_layer
from repro.testing import random_hierarchy_layer as random_layer

METRICS = ("area", "latency_ns")


def run(layer, strategy, start="R", **options):
    problem = ExplorationProblem(start=start, metrics=METRICS, layer=layer)
    return explore(problem, strategy=strategy, **options)


class TestExhaustiveVsBnb:
    @given(st.integers(min_value=0, max_value=9999))
    @settings(max_examples=30, deadline=None)
    def test_identical_frontiers_on_random_hierarchies(self, seed):
        layer = random_layer(seed)
        full = run(layer, "exhaustive")
        bnb = run(layer, "bnb")
        assert bnb.frontier.digest() == full.frontier.digest()
        assert bnb.frontier.outcomes() == full.frontier.outcomes()
        assert bnb.stats.opened <= full.stats.opened

    @given(st.integers(min_value=0, max_value=9999))
    @settings(max_examples=10, deadline=None)
    def test_terminal_accounting_consistent(self, seed):
        layer = random_layer(seed)
        full = run(layer, "exhaustive")
        assert full.stats.terminals <= full.stats.expanded + 1
        assert full.stats.outcomes >= len(full.frontier)


class TestBeam:
    def test_wide_beam_equals_exhaustive(self):
        layer = build_widget_layer()
        assert run(layer, "beam", start="Widget", width=64).frontier.digest() == \
            run(layer, "exhaustive", start="Widget").frontier.digest()

    def test_narrow_beam_is_a_subset_search(self):
        layer = build_widget_layer()
        narrow = run(layer, "beam", start="Widget", width=1)
        full = run(layer, "exhaustive", start="Widget")
        assert len(narrow.frontier) <= len(full.frontier)
        assert narrow.stats.pruned.get("beam", 0) > 0
        # Every beam outcome is a genuine terminal of the space.
        keys = {o.key for o in narrow.frontier.outcomes()}
        assert keys  # beam width 1 still reaches terminals


class TestEvolutionary:
    def test_same_seed_is_byte_identical(self):
        layer = build_widget_layer()
        first = run(layer, "evolutionary", start="Widget", seed=7,
                    population=8, generations=4)
        second = run(layer, "evolutionary", start="Widget", seed=7,
                     population=8, generations=4)
        assert first.frontier.digest() == second.frontier.digest()
        assert first.render_text() == second.render_text()
        assert first.stats.evaluations == second.stats.evaluations

    def test_finds_real_terminals(self):
        layer = build_widget_layer()
        result = run(layer, "ga", start="Widget", seed=3, population=8,
                     generations=4)
        full = run(layer, "exhaustive", start="Widget")
        full_keys = {o.key for o in full.frontier.outcomes()}
        for outcome in result.frontier.outcomes():
            # GA frontier members are real library cores, and any that
            # are non-dominated globally must appear in the full set.
            assert outcome.core in {"h1", "h2", "h3", "s1", "s2"}
            if outcome.key in full_keys:
                assert outcome in full.frontier

    @pytest.mark.parametrize("order", [("n", "f"), ("f", "n")])
    def test_a_nan_score_never_wins_a_genome(self, order):
        # n's NaN area neither dominates f nor is dominated, so the
        # terminal returns both; the genome scores f's 2 + 3 whichever
        # comes first.
        merits = {"n": {"area": math.nan, "latency_ns": 1.0},
                  "f": {"area": 2.0, "latency_ns": 3.0}}
        layer = DesignSpaceLayer("nan", "one terminal")
        layer.add_root(ClassOfDesignObjects("R", "root"))
        library = ReuseLibrary("lib", "cores")
        for name in order:
            library.add(DesignObject(name, "R", {}, merits[name]))
        layer.attach_library(library)
        layer.validate()
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        ctx = SearchContext(problem, problem.open_session(layer))
        score = EvolutionaryStrategy()._evaluate(ctx, (0,), (1.0, 1.0), {})
        assert score == 5.0
        assert len(ctx.frontier) == 2


class TestWeights:
    @pytest.mark.parametrize("weight", [-1.0, -0.5, math.nan, math.inf,
                                        "1"])
    @pytest.mark.parametrize("name", ["beam", "evolutionary"])
    def test_negative_or_non_finite_weights_are_rejected(self, name,
                                                         weight):
        # A negative weight could score an outcome that another
        # dominates below it.
        with pytest.raises(ExplorationError, match="weight of 'area'"):
            make_strategy(name, weights={"area": weight})
        with pytest.raises(ExplorationError, match="weight of 'area'"):
            STRATEGIES[name](weights={"latency_ns": 1.0, "area": weight})

    @pytest.mark.parametrize("name", ["beam", "evolutionary"])
    def test_zero_and_positive_weights_are_accepted(self, name):
        strategy = make_strategy(name, weights={"area": 0, "latency_ns": 2.5})
        assert strategy.weights == {"area": 0, "latency_ns": 2.5}


class TestRegistry:
    def test_known_names(self):
        for name in ("exhaustive", "bnb", "branch-and-bound", "beam",
                     "evolutionary", "ga"):
            assert name in STRATEGIES

    def test_make_strategy_aliases(self):
        assert isinstance(make_strategy("branch-and-bound"),
                          BranchAndBoundStrategy)
        assert isinstance(make_strategy("ga"), EvolutionaryStrategy)
        assert isinstance(make_strategy("beam", width=2), BeamStrategy)
        assert isinstance(make_strategy("exhaustive"), ExhaustiveStrategy)
