"""Parallel branch evaluation: determinism and worker-pool policy."""

import functools
import pickle

import pytest

from repro.core import ExplorationProblem
from repro.core.explore import (
    BranchTask,
    WorkerPool,
    evaluate_branch,
    explore,
)
from repro.domains.crypto import crypto_exploration_problem
from repro.domains.idct import idct_exploration_problem
from repro.errors import ExplorationError

from conftest import EXPLORE_DIGEST, build_widget_layer

METRICS = ("area", "latency_ns")


def widget_problem(**overrides):
    kwargs = dict(start="Widget", metrics=METRICS,
                  layer_factory=build_widget_layer)
    kwargs.update(overrides)
    return ExplorationProblem(**kwargs)


class TestDeterministicMerge:
    def test_thread_jobs_match_serial(self, widget_layer):
        # A live layer for the parent's fan-out, the factory for the
        # workers.
        problem = widget_problem(layer=widget_layer)
        serial = explore(problem, strategy="exhaustive")
        for jobs in (2, 4):
            parallel = explore(problem, strategy="exhaustive", jobs=jobs)
            assert parallel.frontier.digest() == serial.frontier.digest()
            assert parallel.stats.terminals == serial.stats.terminals

    def test_process_backend_matches_serial(self, idct_layer):
        problem = idct_exploration_problem(layer=idct_layer)
        serial = explore(problem, strategy="bnb")
        # Without the live layer, the parent and the workers build the
        # layer from the factory.
        parallel = explore(idct_exploration_problem(), strategy="bnb",
                           jobs=2)
        assert parallel.frontier.digest() == serial.frontier.digest()

    def test_evolutionary_islands_are_deterministic(self, widget_layer):
        problem = widget_problem(layer=widget_layer)
        first = explore(problem, strategy="evolutionary", jobs=2,
                        seed=5, population=6, generations=3)
        second = explore(problem, strategy="evolutionary", jobs=2,
                         seed=5, population=6, generations=3)
        assert first.frontier.digest() == second.frontier.digest()
        # Islands only widen the search relative to one population.
        solo = explore(problem, strategy="evolutionary", seed=5,
                       population=6, generations=3)
        assert first.stats.evaluations >= solo.stats.evaluations


def explore_problem(layer):
    """The 50k explore layer's benchmark problem; workers hydrate its
    snapshot."""
    return ExplorationProblem(start="Design", metrics=METRICS,
                              requirements={"Width": 16}, layer=layer,
                              snapshot=layer.snapshot())


class TestParallelStats:
    @pytest.mark.parametrize("name", ["widget", "idct", "crypto", "50k"])
    def test_exhaustive_stats_equal_serial(self, name, request):
        # Every root branch a worker opens is one descent, counted once
        # as the serial walk counts it.
        if name == "50k":
            problem = explore_problem(request.getfixturevalue(
                "explore_layer"))
        else:
            problem = {"widget": widget_problem,
                       "idct": idct_exploration_problem,
                       "crypto": crypto_exploration_problem}[name]()
        serial = explore(problem, strategy="exhaustive")
        parallel = explore(problem, strategy="exhaustive", jobs=2,
                           chunk_size=1)
        assert parallel.frontier.digest() == serial.frontier.digest()
        assert parallel.stats.to_dict() == serial.stats.to_dict()
        if name == "50k":
            assert serial.frontier.digest() == EXPLORE_DIGEST
            assert serial.stats.expanded == 424


class TestEvaluateBranch:
    def test_single_branch(self):
        task = BranchTask(problem=widget_problem(
            decisions=(("Style", "hw"),)), strategy="exhaustive")
        result = evaluate_branch(task)
        assert result.error is None
        assert {o.core for o in result.outcomes} == {"h1", "h2"}

    def test_infeasible_prefix_counts_as_pruned(self, crypto_layer):
        # CC1 rejects Montgomery when the modulus is not guaranteed odd
        # -- the branch is infeasible, which is a pruned branch for a
        # worker, not a crash.
        from repro.domains.crypto import vocab as v
        problem = ExplorationProblem(
            start=v.OMM_PATH, metrics=METRICS,
            requirements={v.EOL: 768, v.LATENCY_US: 8.0},
            decisions=((v.IMPLEMENTATION_STYLE, v.HARDWARE),
                       (v.ALGORITHM, v.MONTGOMERY)),
            layer=crypto_layer)
        for fanout in (False, True):
            result = evaluate_branch(BranchTask(
                problem=problem, strategy="exhaustive", fanout=fanout))
            assert result.error is None
            assert result.outcomes == []
            # Cut before any descent, as the serial walk cuts it.
            assert result.stats.pruned == {"constraint": 1}
            assert result.stats.expanded == 0

    def test_a_fanout_branch_counts_its_root_decision(self):
        problem = widget_problem(decisions=(("Style", "hw"),))
        plain, fanout = (
            evaluate_branch(BranchTask(problem=problem,
                                       strategy="exhaustive",
                                       fanout=fanout)).stats
            for fanout in (False, True))
        assert fanout.expanded == plain.expanded + 1

    def test_invalid_option_is_an_error_not_a_prune(self):
        # A typo'd option in a task is a bug in the caller: the worker
        # reports it and the evaluator raises instead of silently
        # dropping the branch from the frontier.
        task = BranchTask(problem=widget_problem(
            decisions=(("Style", "sw"), ("Lang", "cobol"))),
            strategy="exhaustive", label="sw-branch")
        result = evaluate_branch(task)
        assert result.error is not None and "cobol" in result.error
        with WorkerPool(jobs=1) as pool:
            with pytest.raises(ExplorationError, match="sw-branch"):
                pool.map([task])


class TestPolicy:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ExplorationError):
            WorkerPool(jobs=0)
        with pytest.raises(ExplorationError):
            explore(widget_problem(), jobs=0)

    def test_process_backend_requires_factory(self, widget_layer):
        problem = widget_problem(layer=widget_layer, layer_factory=None)
        tasks = [BranchTask(problem=problem, strategy="exhaustive"),
                 BranchTask(problem=problem, strategy="exhaustive")]
        with WorkerPool(jobs=2) as pool:
            with pytest.raises(ExplorationError, match="layer_factory"):
                pool.map(tasks)
            assert not pool.started
        with pytest.raises(ExplorationError, match="layer_factory"):
            explore(problem, strategy="exhaustive", jobs=2)

    def test_traced_layer_without_factory_shares_layer(self):
        # With neither a factory nor a snapshot, the in-process dispatch
        # searches the traced live layer itself, and the frontier is
        # unchanged.
        def tasks(layer):
            problem = widget_problem(layer=layer, layer_factory=None)
            return [BranchTask(problem=problem.with_prefix(("Style", style)),
                               strategy="exhaustive", label=style)
                    for style in ("hw", "sw")]

        layer = build_widget_layer()
        layer.observe()
        with WorkerPool(jobs=1) as pool:
            results = pool.map(tasks(layer))
        assert any(event.kind == "prune"
                   for event in layer.observer.events)
        untraced = [evaluate_branch(task)
                    for task in tasks(build_widget_layer())]
        assert [r.outcomes for r in results] == \
            [r.outcomes for r in untraced]

    def test_traced_layer_with_factory_runs(self):
        layer = build_widget_layer()
        layer.observe()
        problem = widget_problem(layer=layer)
        result = explore(problem, strategy="exhaustive", jobs=2)
        untraced = explore(widget_problem(layer=build_widget_layer(),
                                          layer_factory=None),
                           strategy="exhaustive")
        assert result.frontier.digest() == untraced.frontier.digest()
        kinds = {event.kind for event in layer.observer.events}
        assert "explore_start" in kinds
        assert "frontier_update" in kinds

    def test_factory_partials_share_one_cached_layer(self):
        from repro.core.explore.parallel import _factory_key
        a = functools.partial(build_widget_layer)
        b = functools.partial(build_widget_layer)
        assert _factory_key(a) == _factory_key(b)
        assert _factory_key(build_widget_layer) == pickle.dumps(
            build_widget_layer, protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ExplorationError, match="cannot be pickled"):
            _factory_key(lambda: build_widget_layer())
