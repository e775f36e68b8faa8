"""Parallel exploration stress under the mutation sanitizer.

Every task a worker process runs shares one hydrated layer out of the
per-process cache — the exact sharing the analyzer's snapshot pass and
the runtime sanitizer exist to police.  These tests run that path hot
(many branches, several workers, randomized layers) with the sanitizer
armed (forked workers inherit it), asserting both that nothing trips
the seal (workers really are read-only) and that results stay
byte-identical to serial evaluation.
"""

import sys

import pytest

from repro.analysis import sanitizer
from repro.core.explore import explore
from repro.core.explore.parallel import (
    _LAYER_CACHE,
    WorkerPool,
    evaluate_branch,
)
from repro.errors import SanitizerError
from repro.testing import random_exploration_problem, stress_branch_tasks


@pytest.fixture(autouse=True)
def _sanitized_and_tight():
    """Activate the sanitizer, clear the worker cache, tighten the GIL."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    _LAYER_CACHE.clear()
    with sanitizer.sanitized():
        yield
    sys.setswitchinterval(previous)
    _LAYER_CACHE.clear()


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_threaded_pool_matches_serial_under_sanitizer(seed):
    """Snapshot-hydrated process pool: many tasks per worker, one sealed
    layer each, results byte-identical to one-by-one serial
    evaluation."""
    tasks = stress_branch_tasks(seed, branches=12, with_snapshot=True)
    serial = [evaluate_branch(task) for task in tasks]
    _LAYER_CACHE.clear()
    with WorkerPool(jobs=4, chunk_size=1) as pool:
        parallel = pool.map(tasks)
        # Each worker hydrates the snapshot once; its other tasks hit
        # the sealed cached layer.
        assert 1 <= pool.last_dispatch.hydrates <= pool.jobs
    assert [r.label for r in parallel] == [r.label for r in serial]
    for s, p in zip(serial, parallel):
        assert p.outcomes == s.outcomes
        assert p.error is None


@pytest.mark.parametrize("strategy", ["exhaustive", "bnb"])
def test_threaded_explore_digest_equals_serial(strategy):
    """Full engine fan-out on worker processes, sanitizer active:
    frontier digests must match the serial run exactly."""
    problem = random_exploration_problem(29, with_snapshot=True)
    serial = explore(problem, strategy=strategy)
    parallel = explore(problem, strategy=strategy, jobs=4)
    assert parallel.frontier.digest() == serial.frontier.digest()
    assert parallel.frontier.outcomes() == serial.frontier.outcomes()


def test_sealed_hydrated_layer_rejects_mutation():
    """The seal is real: mutating the layer a worker hydrated from a
    snapshot raises instead of corrupting every other task's view."""
    from repro.core.explore.parallel import _hydrate_snapshot

    problem = random_exploration_problem(8, with_snapshot=True)
    layer, _, fresh = _hydrate_snapshot(problem.snapshot)
    assert fresh
    with pytest.raises(SanitizerError):
        layer.add_alias("illegal", "R")
    library = layer.libraries.libraries[0]
    with pytest.raises(SanitizerError):
        library.remove(next(iter(layer.libraries)).name)
    core = next(iter(layer.libraries))
    with pytest.raises(SanitizerError):
        core.set_merit("area", 0.0)


def test_cache_hit_returns_the_same_sealed_layer():
    from repro.core.explore.parallel import _hydrate_snapshot

    problem = random_exploration_problem(8, with_snapshot=True)
    first, _, fresh_first = _hydrate_snapshot(problem.snapshot)
    second, elapsed, fresh_second = _hydrate_snapshot(problem.snapshot)
    assert fresh_first and not fresh_second
    assert second is first
    assert elapsed == 0.0
    assert sanitizer.is_sealed(first)
