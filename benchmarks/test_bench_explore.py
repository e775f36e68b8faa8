"""E-EX — automated exploration: strategy cost.

The exploration engine's pitch is that pruning-aware search visits far
fewer branches than exhaustive enumeration while returning the same
Pareto frontier.  This benchmark measures that claim on a synthetic
layer whose merit landscape has a real dominance gradient (later
families are strictly worse), so branch-and-bound has something to
prune: exhaustive vs branch-and-bound — branch counts and wall time.  ``record.py`` commits the 50k-core counts and serial wall times
to ``BENCH_pruning.json``.
"""

import os

import pytest

from repro.core import DesignSpaceLayer, ExplorationProblem, ExplorationSession
from repro.core.explore import explore
from repro.core.explore.engine import SearchContext
from repro.core.index import CoreIndex
from repro.testing import dominance_gradient_layer

from conftest import emit
from record import walk_calls

METRICS = ("area", "latency_ns")

#: Module-global layer cache: each size is built once per session.
_LAYERS = {}


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_layer(num_cores: int = 50000) -> DesignSpaceLayer:
    layer = _LAYERS.get(num_cores)
    if layer is None:
        layer = dominance_gradient_layer(num_cores)
        _LAYERS[num_cores] = layer
    return layer


def exploration_problem(num_cores: int = 50000) -> ExplorationProblem:
    return ExplorationProblem(
        start="Design", metrics=METRICS, requirements={"Width": 16},
        layer=bench_layer(num_cores))


@pytest.fixture(scope="module")
def problem_5k():
    problem = exploration_problem(5000)
    explore(problem, strategy="exhaustive")  # warm the indexes
    return problem


@pytest.mark.parametrize("strategy", ["exhaustive", "bnb"])
def test_bench_strategy_cost(benchmark, problem_5k, strategy):
    result = benchmark(lambda: explore(problem_5k, strategy=strategy))
    emit(f"Exploration strategies — {strategy} over 5k cores",
         f"{result.stats.describe()}\n"
         f"frontier: {len(result.frontier)} digest: "
         f"{result.frontier.digest()}")
    assert result.stats.terminals > 0


def test_bench_bnb_prunes_branches(problem_5k):
    full = explore(problem_5k, strategy="exhaustive")
    bnb = explore(problem_5k, strategy="bnb")
    emit("Branch-and-bound vs exhaustive — 5k cores",
         f"exhaustive: {full.stats.describe()}\n"
         f"bnb:        {bnb.stats.describe()}")
    assert bnb.frontier.digest() == full.frontier.digest()
    assert bnb.stats.opened < full.stats.opened
    assert bnb.stats.pruned.get("bound", 0) > 0


@pytest.mark.parametrize("strategy", ["exhaustive", "bnb"])
def test_bench_walk_is_deterministic(problem_5k, strategy):
    first = explore(problem_5k, strategy=strategy)
    again = explore(problem_5k, strategy=strategy)
    assert again.frontier.digest() == first.frontier.digest()
    assert again.stats.to_dict() == first.stats.to_dict()
    assert again.render_text() == first.render_text()


@pytest.mark.parametrize("strategy", ["exhaustive", "bnb"])
def test_bench_warm_walk_builds_no_terminal_order(problem_5k, strategy,
                                                  monkeypatch):
    """Terminal orders are kept per decided mask, which does not depend
    on the requirements, from the second walk that sees it: a walk
    after that sorts nothing."""
    first = explore(problem_5k, strategy=strategy)
    explore(problem_5k, strategy=strategy)
    index = problem_5k.layer.libraries.index()
    kept = dict(index._orders)
    built = []
    order = CoreIndex._order

    def spy(index, ids, scope, nan, metrics, columns):
        if not isinstance(index._orders.get((metrics, scope)), list):
            built.append(scope)
        return order(index, ids, scope, nan, metrics, columns)

    monkeypatch.setattr(CoreIndex, "_order", spy)
    again = explore(problem_5k, strategy=strategy)
    assert kept and all(isinstance(o, list) for o in kept.values())
    assert built == []
    assert index._orders == kept
    assert again.frontier.digest() == first.frontier.digest()
    assert again.stats.to_dict() == first.stats.to_dict()


def test_bench_exhaustive_counts_dominated_branches(problem_5k,
                                                    monkeypatch):
    """Exhaustive decides through the session only where bnb expands and
    at each dominated root option (deciding a generalized option moves
    the CDO); it counts every other dominated branch from bitmasks."""
    branch_pruned = SearchContext.branch_pruned
    root_cuts = []

    def pruned(ctx, issue, info, reason):
        if reason == "bound" and not ctx.session.decisions:
            root_cuts.append(info.option)
        branch_pruned(ctx, issue, info, reason)

    with monkeypatch.context() as patch:
        patch.setattr(SearchContext, "branch_pruned", pruned)
        bnb = explore(problem_5k, strategy="bnb")
    full = explore(problem_5k, strategy="exhaustive")
    decides = walk_calls(ExplorationSession, "decide", problem_5k,
                         "exhaustive")
    emit("Exhaustive session decides — 5k cores",
         f"decide calls: {decides} of {full.stats.expanded} expanded; "
         f"bnb expanded {bnb.stats.expanded}, dominated root options "
         f"{len(root_cuts)}")
    assert root_cuts
    assert decides <= bnb.stats.expanded + len(root_cuts)
