"""WorkerPool lifecycle, chunked work stealing, the layer cache, and
worker deaths.

What must hold regardless of scheduling: ``map()`` returns results in
task order, chunked and unchunked dispatches produce identical frontier
digests, the per-process layer cache stays bounded, closing the pool is
final, a factory that cannot reach a worker is refused before dispatch,
and one dead worker costs one restart rather than the pool.  Stats
(steals, hydrations, utilization) are checked for plausibility, not
exact values — they legitimately vary with worker timing.
"""

import functools
import os
import pickle

import pytest

from repro.core import ExplorationProblem
from repro.core.explore import (
    BranchTask,
    ExplorationEngine,
    WorkerPool,
    chunk_count,
    explore,
)
from repro.core.explore.parallel import (
    _LAYER_CACHE,
    _LayerCache,
    evaluate_branch,
)
from repro.errors import ExplorationError

from conftest import build_widget_layer

METRICS = ("area", "latency_ns")


def widget_problem(**overrides):
    kwargs = dict(start="Widget", metrics=METRICS,
                  layer_factory=build_widget_layer)
    kwargs.update(overrides)
    return ExplorationProblem(**kwargs)


def widget_tasks(n, **overrides):
    """n copies of the full widget search (digest-equal by task)."""
    return [BranchTask(problem=widget_problem(**overrides),
                       strategy="exhaustive", label=f"t{i}")
            for i in range(n)]


def result_digests(results):
    return [tuple(sorted(o.key for o in r.outcomes)) for r in results]


class TestLifecycle:
    def test_pool_persists_across_dispatches(self):
        with WorkerPool(jobs=2) as pool:
            pool.map(widget_tasks(4))
            first = pool._executor
            pool.map(widget_tasks(4))
            assert pool._executor is first
            assert pool.stats.dispatches == 2
            assert pool.stats.tasks == 8

    def test_close_is_final_and_idempotent(self):
        pool = WorkerPool(jobs=2)
        pool.warm()
        assert pool.started and not pool.closed
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(ExplorationError, match="closed"):
            pool.map(widget_tasks(2))

    def test_context_manager_closes(self):
        with WorkerPool(jobs=2) as pool:
            pool.map(widget_tasks(2))
        assert pool.closed

    def test_constructor_validates(self):
        with pytest.raises(ExplorationError, match="jobs"):
            WorkerPool(jobs=0)
        with pytest.raises(ExplorationError, match="chunk"):
            WorkerPool(jobs=2, chunk_size=0)

    def test_snapshot_pool_serves_snapshot_problems(self):
        snap = build_widget_layer().snapshot()
        problem = widget_problem(layer_factory=None, snapshot=snap)
        with WorkerPool(jobs=2, snapshot=snap) as pool:
            a = explore(problem, pool=pool)
            b = explore(problem, strategy="bnb", pool=pool)
        assert a.frontier.digest() == b.frontier.digest()
        assert pool.stats.dispatches == 2

    def test_engine_does_not_close_lent_pool(self):
        with WorkerPool(jobs=2) as pool:
            problem = widget_problem()
            engine = ExplorationEngine(problem, jobs=4, pool=pool)
            # The lent pool defines the parallelism shape.
            assert engine.jobs == 2
            engine.run()
            engine.run()
            assert not pool.closed
            assert pool.stats.dispatches == 2


class TestChunking:
    def test_chunk_count_default_oversubscribes(self):
        size, chunks = chunk_count(64, jobs=4)
        assert size == 4 and chunks == 16
        assert chunk_count(3, jobs=4) == (1, 3)
        assert chunk_count(0, jobs=4) == (0, 0)
        assert chunk_count(10, jobs=2, chunk_size=4) == (4, 3)

    def test_chunked_matches_unchunked_in_task_order(self):
        tasks = []
        for style in ("hw", "sw"):
            tasks.extend(widget_tasks(3, decisions=(("Style", style),)))
        with WorkerPool(jobs=1) as serial_pool:
            expect = result_digests(serial_pool.map(tasks))
        for chunk_size in (1, 2, len(tasks)):
            with WorkerPool(jobs=3, chunk_size=chunk_size) as pool:
                results = pool.map(tasks)
            assert result_digests(results) == expect
            assert [r.label for r in results] == [t.label for t in tasks]

    def test_dispatch_stats_are_plausible(self):
        tasks = widget_tasks(8)
        with WorkerPool(jobs=2, chunk_size=1) as pool:
            pool.map(tasks)
            d = pool.last_dispatch
        assert d.tasks == 8 and d.chunks == 8 and d.chunk_size == 1
        # Each participating worker's first chunk is fair share, the
        # rest are steals: with w of the 2 workers active the total is
        # chunks - w, so it lands in [chunks - jobs, chunks - 1].
        assert d.chunks - 2 <= d.steals <= d.chunks - 1
        assert 0.0 <= d.utilization <= 1.0
        assert d.to_dict()["chunks"] == 8

    def test_explore_chunk_size_keeps_digest(self, widget_layer):
        problem = widget_problem(layer=widget_layer)
        serial = explore(problem)
        chunked = explore(problem, jobs=2, chunk_size=1)
        assert chunked.frontier.digest() == serial.frontier.digest()
        assert chunked.pool is not None
        assert chunked.pool["chunk_size"] == 1


class TestLayerCache:
    def test_lru_stays_bounded_across_distinct_factories(self):
        cache = _LayerCache(capacity=2)
        for i in range(5):
            cache.put(("factory", i), object())
        assert len(cache) == 2
        assert cache.get(("factory", 0)) is None  # evicted, not leaked
        assert cache.get(("factory", 4)) is not None

    def test_lru_get_refreshes_recency(self):
        cache = _LayerCache(capacity=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"
        cache.put(("c",), "C")  # evicts b, the least recently used
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"

    def test_worker_cache_capacity_is_small(self):
        # The real per-process cache must stay bounded: distinct
        # problems cannot accumulate one multi-MB layer each.
        assert _LAYER_CACHE.capacity <= 8

    def test_dict_partial_is_cached_under_its_pickle_key(self):
        # A partial over a dict argument is unhashable, but it pickles:
        # its bytes key the cache, so the second task hydrates nothing.
        factory = functools.partial(_layer_with_config,
                                    config={"mutable": True})
        problem = widget_problem(layer_factory=factory)
        key = ("factory", pickle.dumps(factory,
                                       protocol=pickle.HIGHEST_PROTOCOL))
        _LAYER_CACHE.clear()
        try:
            first = evaluate_branch(BranchTask(problem=problem,
                                               strategy="exhaustive"))
            cached = _LAYER_CACHE.get(key)
            second = evaluate_branch(BranchTask(problem=problem,
                                                strategy="exhaustive"))
        finally:
            _LAYER_CACHE.clear()
        assert first.error is None and second.error is None
        assert first.hydrated and first.hydrate_s > 0.0
        assert cached is not None
        assert not second.hydrated and second.hydrate_s == 0.0
        assert second.outcomes == first.outcomes

    def test_keyed_factory_hydrates_once_per_worker(self):
        snap = build_widget_layer().snapshot()
        problem = widget_problem(layer_factory=None, snapshot=snap)
        with WorkerPool(jobs=1) as pool:
            pool.map(widget_tasks(1, layer_factory=None, snapshot=snap))
            first = pool.stats.hydrates
            pool.map(widget_tasks(1, layer_factory=None, snapshot=snap))
            assert pool.stats.hydrates == first  # cache hit, no rework


def _layer_with_config(config):
    return build_widget_layer()


def _exit_once_in_worker(marker, parent_pid):
    """The widget layer, except that the first worker process to build
    it dies instead."""
    if os.getpid() != parent_pid:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return build_widget_layer()


def _exit_in_worker(parent_pid):
    """The widget layer in this process; death in any worker process."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return build_widget_layer()


class TestFactoryShipping:
    def test_unpicklable_factory_is_refused_before_dispatch(self):
        problem = widget_problem(layer_factory=lambda: build_widget_layer())
        with WorkerPool(jobs=2) as pool:
            with pytest.raises(ExplorationError,
                               match="cannot be pickled.*module-level"):
                explore(problem, pool=pool)
            assert not pool.started
        with pytest.raises(ExplorationError, match="snapshot"):
            explore(problem, jobs=2)


class TestWorkerDeath:
    def test_one_dead_worker_costs_one_restart(self, tmp_path):
        factory = functools.partial(_exit_once_in_worker,
                                    str(tmp_path / "died"), os.getpid())
        serial = explore(widget_problem())
        clean = explore(widget_problem(), jobs=2, chunk_size=1)
        with WorkerPool(jobs=2, chunk_size=1) as pool:
            result = explore(widget_problem(layer_factory=factory),
                             pool=pool)
            assert pool.stats.restarts == 1
        assert (tmp_path / "died").exists()
        assert result.pool["restarts"] == 1
        assert result.frontier.digest() == serial.frontier.digest()
        assert result.frontier.outcomes() == clean.frontier.outcomes()
        assert result.stats.to_dict() == clean.stats.to_dict()

    def test_a_second_death_raises_and_the_pool_serves_on(self):
        dying = widget_problem(layer_factory=functools.partial(
            _exit_in_worker, os.getpid()))
        serial = explore(widget_problem())
        clean = explore(widget_problem(), jobs=2)
        with WorkerPool(jobs=2) as pool:
            with pytest.raises(ExplorationError, match="after a restart"):
                explore(dying, pool=pool)
            assert not pool.closed
            result = explore(widget_problem(), pool=pool)
            assert pool.last_dispatch.restarts == 0
        assert result.frontier.digest() == serial.frontier.digest()
        assert result.stats.to_dict() == clean.stats.to_dict()


class TestObsEvents:
    def test_parallel_dispatch_emits_pool_events(self, widget_layer):
        widget_layer.observe()
        try:
            problem = ExplorationProblem(
                start="Widget", metrics=METRICS, layer=widget_layer,
                layer_factory=build_widget_layer)
            explore(problem, jobs=2, chunk_size=1)
            kinds = {e.kind for e in widget_layer.observer.events}
            assert "chunk_dispatch" in kinds
            rendered = widget_layer.observer.metrics.render_prometheus()
            assert "dsl_explore_chunks_total" in rendered
            assert "dsl_pool_workers" in rendered
        finally:
            widget_layer.observe(None)
