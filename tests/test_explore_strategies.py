"""Strategy equivalence and determinism.

The load-bearing property: branch-and-bound prunes with *optimistic*
merit bounds and a *strict*-dominance test, so on any hierarchy it must
return byte-for-byte the same Pareto frontier as exhaustive
enumeration.  Hypothesis generates small random layers to probe it.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ExplorationProblem
from repro.core.explore import (
    STRATEGIES,
    BranchAndBoundStrategy,
    ExhaustiveStrategy,
    explore,
)

from conftest import build_widget_layer
from repro.testing import random_hierarchy_layer as random_layer

METRICS = ("area", "latency_ns")


def run(layer, strategy, start="R"):
    problem = ExplorationProblem(start=start, metrics=METRICS, layer=layer)
    return explore(problem, strategy=strategy)


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


class TestRegistry:
    def test_known_names(self):
        assert sorted(STRATEGIES) == ["bnb", "branch-and-bound",
                                      "exhaustive"]

    def test_aliases_name_one_strategy(self):
        assert STRATEGIES["branch-and-bound"] is BranchAndBoundStrategy
        assert STRATEGIES["bnb"] is BranchAndBoundStrategy
        assert STRATEGIES["exhaustive"] is ExhaustiveStrategy
        layer = build_widget_layer()
        assert run(layer, "branch-and-bound",
                   start="Widget").strategy == "bnb"
