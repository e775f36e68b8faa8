"""The branch bound: one dominance check per opened option.

Exhaustive and branch-and-bound walks bound each option they open by
the ideal point of its candidate ids.  bnb cuts a dominated branch;
exhaustive counts it, from bitmasks (``tests/test_explore_counted.py``)
or, where those cannot stand in for the session, in a count-only
descent, where a terminal counts the candidates of the option that led
to it instead of pruning again.  Both are exact only if those
candidates *are* the terminal's survivors, which the first property
checks on random layers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClassOfDesignObjects,
    DesignIssue,
    DesignObject,
    DesignSpaceLayer,
    EnumDomain,
    ReuseLibrary,
)
from repro.core.explore import ExplorationProblem, explore
from repro.core.explore.engine import SearchContext
from repro.core.index import CoreIndex
from repro.core.pruning import MissingPolicy
from repro.core.session import ExplorationSession
from repro.testing import random_hierarchy_layer
from repro.testing.stress import random_core_population_layer

from test_explore_frontier import reference_run

METRICS = ("area", "latency_ns")


def _estimate(session):
    return {"area": 3.0, "latency_ns": 3.0}


class TestDecidingOptionIsTheTerminal:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=9999),
           st.booleans(),
           st.sampled_from(list(MissingPolicy)),
           st.sampled_from([None, 1, 2]),
           st.sampled_from([1, 2, 16]),
           st.booleans(),
           st.sampled_from([{}, {"Width": 16}, {"Width": 32, "MaxArea": 300}]))
    def test_option_candidates_are_the_survivors(
            self, seed, population, policy, max_depth, option_limit,
            estimate, requirements):
        if population:
            layer = random_core_population_layer(seed, 60)
            start = "Block"
        else:
            layer = random_hierarchy_layer(seed)
            start, requirements = "R", {}
        problem = ExplorationProblem(
            start=start, metrics=METRICS, layer=layer,
            requirements=requirements, missing_policy=policy,
            max_depth=max_depth, option_limit=option_limit,
            estimator=_estimate if estimate else None)
        seen = []
        terminal = SearchContext.terminal

        def checking(ctx, via=None, dominated=False):
            if via is not None:
                survivors = ctx.session.prune_report().survivor_ids
                seen.append((via.candidate_ids, survivors))
            return terminal(ctx, via, dominated)

        explore(problem)  # warm: the checks below see the same index
        SearchContext.terminal = checking
        try:
            result = explore(problem, strategy="exhaustive")
        finally:
            SearchContext.terminal = terminal
        assert len(seen) <= result.stats.terminals
        for candidates, survivors in seen:
            assert candidates == survivors


def two_family_layer():
    """``R`` splits (generalized ``F``) into ``good`` and ``bad``; each
    family has issue ``I`` over {0, 1, 2} and no core documents option
    2.  Every ``bad`` core is strictly worse than ``g0``."""
    layer = DesignSpaceLayer("two", "one family strictly worse")
    root = ClassOfDesignObjects("R", "root")
    root.add_property(DesignIssue("F", EnumDomain(["good", "bad"]),
                                  "family", generalized=True))
    layer.add_root(root)
    for family in ("good", "bad"):
        root.specialize(family).add_property(
            DesignIssue("I", EnumDomain([0, 1, 2]), "issue"))
    library = ReuseLibrary("lib", "cores")
    for name, family, option, area, latency in (
            ("g0", "good", 0, 1.0, 1.0), ("g1", "good", 1, 0.5, 4.0),
            ("b0", "bad", 0, 2.0, 5.0), ("b1", "bad", 0, 6.0, 2.0),
            ("b2", "bad", 1, 3.0, 3.0)):
        library.add(DesignObject(name, f"R.{family}", {"I": option},
                                 {"area": area, "latency_ns": latency}))
    layer.attach_library(library)
    layer.validate()
    return layer


class TestCountOnlyDescent:
    @pytest.fixture()
    def spies(self, monkeypatch):
        """Where prunes run and which id sets get an ideal point."""
        calls = {"prune": [], "prune_report": [], "merit_minima": []}
        prune = CoreIndex.prune
        report = ExplorationSession.prune_report
        minima = CoreIndex.merit_minima

        def spy_prune(index, cdo_name, *args, **kwargs):
            calls["prune"].append(cdo_name)
            return prune(index, cdo_name, *args, **kwargs)

        def spy_report(session, *args, **kwargs):
            calls["prune_report"].append(session.current_cdo.qualified_name)
            return report(session, *args, **kwargs)

        def spy_minima(index, ids, metrics):
            calls["merit_minima"].append(
                sorted(index.names[i] for i in ids))
            return minima(index, ids, metrics)

        monkeypatch.setattr(CoreIndex, "prune", spy_prune)
        monkeypatch.setattr(ExplorationSession, "prune_report", spy_report)
        monkeypatch.setattr(CoreIndex, "merit_minima", spy_minima)
        return calls

    @pytest.mark.parametrize("estimate", [False, True],
                             ids=["plain", "estimator"])
    def test_dominated_family_is_counted_not_pruned(
            self, monkeypatch, spies, estimate):
        layer = two_family_layer()
        problem = ExplorationProblem(
            start="R", metrics=METRICS, layer=layer,
            estimator=_estimate if estimate else None)
        explore(problem)  # warm the index
        for calls in spies.values():
            calls.clear()
        got = explore(problem, strategy="exhaustive")
        bad = ["b0", "b1", "b2"]
        assert "R.bad" not in spies["prune"]
        assert "R.bad" not in spies["prune_report"]
        assert [ids for ids in spies["merit_minima"]
                if set(ids) <= set(bad)] == [bad]
        want = reference_run(monkeypatch, problem, strategy="exhaustive")
        assert got.frontier.digest() == want.frontier.digest()
        assert got.stats.to_dict() == want.stats.to_dict()
        # Every bad core is offered (counted), none joins.
        assert all(o.core not in bad for o in got.frontier.outcomes())
        if estimate:
            # I=2 leaves no survivor in either family: both terminals,
            # the dominated one included, run the estimator.
            assert got.stats.evaluations == want.stats.evaluations == 2

    def test_bnb_cuts_the_dominated_family(self, spies):
        layer = two_family_layer()
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        full = explore(problem, strategy="exhaustive")
        bnb = explore(problem, strategy="bnb")
        assert bnb.stats.pruned["bound"] == 1
        assert bnb.frontier.digest() == full.frontier.digest()
