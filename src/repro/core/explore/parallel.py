"""Parallel branch evaluation for the exploration engine.

The unit of distribution is a :class:`BranchTask` — one problem/strategy
pair, usually one branch of the root issue's fan-out.  A
:class:`WorkerPool` runs tasks on worker processes and returns
:class:`BranchResult` records **in task order**, so the engine's merge is
deterministic no matter how workers were scheduled.  Processes are the
one parallel path: the branch search is pure Python and holds the GIL,
so only separate interpreters run branches at the same time.

* **Snapshot hydration** — workers hydrate their layer **once**, at pool
  startup, from a compact :class:`~repro.core.serialize.LayerSnapshot`
  shipped through the pool initializer.  Hydrated layers live in a small
  per-process LRU (:data:`LAYER_CACHE_SIZE`) keyed by snapshot digest or
  by the pickle bytes of the problem's ``layer_factory``, so repeated
  explorations and multiple problems reuse them without leaking.
* **Ownership** — a pool is either lent by the caller (``pool=``), and
  then outlives individual ``explore()`` calls with its warmed workers,
  or owned by one call, which closes it on return.
* **Chunked work stealing** — tasks are batched into chunks of
  ``len(tasks) / (jobs * CHUNK_OVERSUBSCRIBE)`` and submitted
  individually; idle workers pull the next pending chunk from the
  executor's shared queue (stealing work from slower peers) instead of
  being handed a fixed ``executor.map`` slice.  Results are re-sorted by
  task index before merging, so frontier digests stay byte-identical to
  serial runs.
* **Restart** — a worker that dies breaks its executor.  The pool starts
  a fresh one and re-dispatches the unfinished chunks once, counting the
  restart; a second break in the same dispatch raises
  :class:`~repro.errors.ExplorationError`, and the next dispatch starts
  clean.

Every ``layer_factory`` that reaches a worker is pickled before
dispatch; a factory that cannot be pickled (a lambda, a closure) is
rejected there with an :class:`~repro.errors.ExplorationError`.  With one
worker or one task, :meth:`WorkerPool.map` evaluates in the calling
thread instead, and may then search the problem's own live layer.

Tracing crosses the process boundary without sharing a recorder: when
the problem carries a sampled :class:`~repro.core.obs.context.TraceContext`,
each branch evaluation fills a bounded, plain-data
:class:`~repro.core.obs.context.WorkerTraceBuffer` (a ``worker_task``
span wrapping hydration and strategy events) that travels back inside
:class:`BranchResult` for the engine to merge deterministically.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.core.explore.engine import ExplorationStats, SearchContext
from repro.core.explore.outcome import Outcome, ParetoFrontier
from repro.core.explore.problem import ExplorationProblem
from repro.core.explore.strategies import make_strategy
from repro.core.layer import DesignSpaceLayer
from repro.core.obs import events as ev
from repro.core.obs.context import TraceContext, WorkerTraceBuffer
from repro.core.serialize import LayerSnapshot
from repro.errors import ConstraintViolation, ExplorationError, SessionError

#: Per-process worker layer cache capacity.  Small on purpose: a worker
#: serves one or two problems at a time, and a 50k-core layer is tens of
#: megabytes — unbounded growth across distinct factories/snapshots was
#: a leak.
LAYER_CACHE_SIZE = 4

#: Oversubscription factor K for chunk sizing: tasks are batched into
#: roughly ``jobs * K`` chunks, so the fastest worker can steal up to
#: K-1 extra chunks from a slow peer before the dispatch drains.
CHUNK_OVERSUBSCRIBE = 4


@dataclass
class BranchTask:
    """One unit of parallel work: search a problem with a strategy."""

    problem: ExplorationProblem
    strategy: str
    options: Dict[str, object] = field(default_factory=dict)
    label: str = ""


@dataclass
class BranchResult:
    """What one worker brought back (picklable: plain data only)."""

    label: str
    outcomes: List[Outcome] = field(default_factory=list)
    stats: ExplorationStats = field(default_factory=ExplorationStats)
    error: Optional[str] = None
    #: Seconds this task spent building/hydrating a worker layer
    #: (0.0 on a cache hit).
    hydrate_s: float = 0.0
    #: The task hydrated/built a fresh layer into the worker cache.
    hydrated: bool = False
    #: Drained :class:`~repro.core.obs.context.WorkerTraceBuffer`
    #: records (plain dicts) when the branch was sampled for tracing.
    trace: List[Dict[str, object]] = field(default_factory=list)
    #: Events the buffer dropped once full (see
    #: ``dsl_trace_events_dropped_total``).
    trace_dropped: int = 0


def _factory_key(factory: Callable[[], DesignSpaceLayer]) -> bytes:
    """The factory's pickle bytes: what a worker receives of it, and so
    its identity in the per-process layer cache.

    Two ``functools.partial`` objects over the same function and
    arguments pickle alike and share one cached layer.  A factory that
    does not pickle could never reach a worker; it is rejected here,
    before anything is dispatched.
    """
    try:
        return pickle.dumps(factory, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ExplorationError(
            f"layer_factory {factory!r} cannot be pickled for a worker "
            f"process ({exc}); use a module-level function (or a "
            "functools.partial of one), or attach a LayerSnapshot "
            "(problem.snapshot)") from exc


class _LayerCache:
    """A tiny per-process LRU of worker layers.

    Keys are snapshot digests (``("snapshot", digest)``) or factory
    pickle bytes (``("factory", bytes)``, see :func:`_factory_key`).
    Bounded so a worker that serves many distinct problems does not
    accumulate every layer it ever built (each can be tens of MB).
    """

    def __init__(self, capacity: int = LAYER_CACHE_SIZE):
        if capacity < 1:
            raise ValueError("layer cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[object, ...], DesignSpaceLayer]" \
            = OrderedDict()
        # The in-process dispatch runs in whichever thread calls
        # WorkerPool.map, so two caller threads can reach the parent's
        # cache at once; the LRU bookkeeping (get's move_to_end, put's
        # eviction loop) is a multi-step read-modify-write that corrupts
        # the OrderedDict or raises KeyError when interleaved, so all
        # three ops take the lock.
        self._lock = threading.Lock()

    def get(self, key: Tuple[object, ...]) -> Optional[DesignSpaceLayer]:
        with self._lock:
            layer = self._entries.get(key)
            if layer is not None:
                self._entries.move_to_end(key)
            return layer

    def put(self, key: Tuple[object, ...], layer: DesignSpaceLayer) -> None:
        with self._lock:
            self._entries[key] = layer
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class _HydrationLog:
    """Initializer hydration timings, drained by the first chunk each
    worker returns (the parent cannot observe initializer work).

    The log owns a lock so :meth:`drain` is a single atomic take-all:
    :func:`evaluate_chunk` is public and may run in any thread, and two
    threads draining a bare list at once could double-count or drop
    timings.
    """

    def __init__(self) -> None:
        self._timings: List[float] = []
        self._lock = threading.Lock()

    def record(self, elapsed: float) -> None:
        with self._lock:
            self._timings.append(elapsed)

    def drain(self) -> Tuple[int, float]:
        """Atomically take (count, total seconds) and reset."""
        with self._lock:
            count = len(self._timings)
            total = sum(self._timings)
            del self._timings[:]
            return count, total


class _InitTraceLog:
    """Plain-data trace records written by the pool initializer and
    drained by the first *sampled* task each worker runs.

    The initializer has no buffer to write into (it runs before any
    task exists) and the parent cannot observe it, so startup hydration
    spans park here until a traced branch carries them home.  In-process
    evaluations drain it too, in whichever thread calls
    :meth:`WorkerPool.map`, hence the lock.
    """

    def __init__(self) -> None:
        self._rows: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    def record(self, row: Dict[str, object]) -> None:
        with self._lock:
            self._rows.append(row)

    def drain(self) -> List[Dict[str, object]]:
        """Atomically take every parked record."""
        with self._lock:
            rows = list(self._rows)
            del self._rows[:]
            return rows


#: Per-process cache of worker layers: a worker process serves many
#: tasks and must not build a 50k-core layer for each.
_LAYER_CACHE = _LayerCache()

#: Hydration timings recorded by the pool initializer.
_INIT_HYDRATIONS = _HydrationLog()

#: Initializer hydration *trace records*, parked for the next sampled
#: branch buffer (tracing counterpart of :data:`_INIT_HYDRATIONS`).
_INIT_TRACE = _InitTraceLog()


def _cached_layer(key: Tuple[object, ...],
                  build: Callable[[], DesignSpaceLayer]
                  ) -> Tuple[DesignSpaceLayer, float, bool]:
    """Resolve a worker layer through the per-process cache, building,
    sealing and caching it on a miss; returns (layer, secs, fresh)."""
    layer = _LAYER_CACHE.get(key)
    if layer is not None:
        return layer, 0.0, False
    # dsa: allow[DSA040] -- build time feeds dispatch stats, never a digest
    t0 = time.perf_counter()
    layer = build()
    # dsa: allow[DSA040] -- build time feeds dispatch stats, never a digest
    elapsed = time.perf_counter() - t0
    # Cached layers are shared by every task this worker runs: seal
    # before publishing so the sanitizer turns any in-worker mutation
    # into a hard error.
    _sanitizer.seal(layer)
    _LAYER_CACHE.put(key, layer)
    return layer, elapsed, True


def _hydrate_snapshot(snapshot: LayerSnapshot) -> Tuple[DesignSpaceLayer,
                                                        float, bool]:
    """Resolve a snapshot through the cache; returns (layer, secs, fresh)."""
    return _cached_layer(("snapshot", snapshot.digest), snapshot.hydrate)


def _pool_initializer(snapshot: Optional[LayerSnapshot],
                      trace: Optional[TraceContext] = None) -> None:
    """Runs once per worker process: hydrate the pool's snapshot so no
    task ever pays the layer build.

    When the pool was started under a sampled :class:`TraceContext`,
    the hydration is also parked as a trace record in
    :data:`_INIT_TRACE` so the merged trace attributes process startup
    cost to the run that caused it.
    """
    if snapshot is not None:
        _, elapsed, fresh = _hydrate_snapshot(snapshot)
        if fresh:
            _INIT_HYDRATIONS.record(elapsed)
            if trace is not None and trace.sampled:
                _INIT_TRACE.record({
                    "kind": ev.WORKER_HYDRATE,
                    "duration_s": elapsed,
                    "payload": {"source": "snapshot", "init": True,
                                "worker": str(os.getpid())},
                })


def _worker_layer(problem: ExplorationProblem
                  ) -> Tuple[DesignSpaceLayer, float, bool]:
    """Resolve the layer a worker should search.

    Returns ``(layer, hydrate_s, hydrated)``.  Preference order: the
    problem's own untraced layer; the problem's snapshot through the
    per-process cache; the factory through the cache, keyed on its
    pickle bytes; finally the problem's own *traced* layer.  A live
    layer never crosses a process boundary (the problem drops it when
    pickled), so the first and last cases arise only when
    :meth:`WorkerPool.map` evaluates in the calling thread.
    """
    if problem.layer is not None and not problem.layer.observer.enabled:
        return problem.layer, 0.0, False
    if problem.snapshot is not None:
        return _hydrate_snapshot(problem.snapshot)
    factory = problem.layer_factory
    if factory is None:
        if problem.layer is not None:
            return problem.layer, 0.0, False
        raise ExplorationError(
            "worker has neither a layer, a snapshot, nor a layer_factory")
    return _cached_layer(("factory", _factory_key(factory)), factory)


def _search_branch(task: BranchTask,
                   buffer: Optional[WorkerTraceBuffer]) -> BranchResult:
    """The branch search proper; strategy events route to ``buffer``."""
    layer, hydrate_s, hydrated = _worker_layer(task.problem)
    if buffer is not None and hydrated:
        buffer.emit_timed(
            ev.WORKER_HYDRATE, hydrate_s,
            source="snapshot" if task.problem.snapshot is not None
            else "factory",
            worker=str(os.getpid()))
    problem = replace(task.problem, layer=layer, _built=None)
    strategy = make_strategy(task.strategy, **task.options)
    stats = ExplorationStats()
    try:
        session = problem.open_session(layer)
    except (ConstraintViolation, SessionError):
        # The branch prefix itself is infeasible: a pruned branch,
        # not an error.
        stats.prune("constraint")
        if buffer is not None:
            buffer.emit(ev.BRANCH_PRUNED, reason="constraint",
                        branch=task.label)
        return BranchResult(label=task.label, stats=stats,
                            hydrate_s=hydrate_s, hydrated=hydrated)
    ctx = SearchContext(problem, session,
                        ParetoFrontier(problem.metrics), stats,
                        recorder=buffer)
    strategy.search(ctx)
    return BranchResult(label=task.label,
                        outcomes=ctx.frontier.outcomes(), stats=stats,
                        hydrate_s=hydrate_s, hydrated=hydrated)


def evaluate_branch(task: BranchTask) -> BranchResult:
    """Search one branch; module-level so the process pool can pickle
    it by reference.

    When the problem carries a sampled
    :class:`~repro.core.obs.context.TraceContext`, the whole evaluation
    runs inside a ``worker_task`` span in a fresh
    :class:`~repro.core.obs.context.WorkerTraceBuffer`; the drained
    plain-data records travel back on ``BranchResult.trace`` for the
    engine's deterministic merge.
    """
    try:
        trace = task.problem.trace
        if trace is None or not trace.sampled:
            return _search_branch(task, None)
        buffer = WorkerTraceBuffer(trace)
        with buffer.span(ev.WORKER_TASK, branch=task.label,
                         task=trace.task_index,
                         worker=str(os.getpid())) as span:
            buffer.absorb_init(_INIT_TRACE.drain())
            result = _search_branch(task, buffer)
            span.note(outcomes=len(result.outcomes),
                      events=len(buffer.records), dropped=buffer.dropped)
        result.trace, result.trace_dropped = buffer.drain()
        return result
    except ExplorationError:
        raise
    except Exception as exc:  # pragma: no cover - worker diagnostics
        return BranchResult(label=task.label,
                            error=f"{type(exc).__name__}: {exc}")


@dataclass
class _ChunkResult:
    """One chunk's worth of results, plus worker accounting."""

    results: List[Tuple[int, BranchResult]]
    worker: str
    elapsed_s: float = 0.0
    #: Initializer hydrations this worker had not yet reported.
    init_hydrates: int = 0
    init_hydrate_s: float = 0.0


def evaluate_chunk(chunk: Sequence[Tuple[int, BranchTask]]) -> _ChunkResult:
    """Evaluate one chunk of indexed tasks sequentially in this worker."""
    t0 = time.perf_counter()
    results = [(index, evaluate_branch(task)) for index, task in chunk]
    init_hydrates, init_hydrate_s = _INIT_HYDRATIONS.drain()
    return _ChunkResult(
        results=results,
        worker=str(os.getpid()),
        elapsed_s=time.perf_counter() - t0,
        init_hydrates=init_hydrates,
        init_hydrate_s=init_hydrate_s)


@dataclass
class DispatchStats:
    """Accounting for one ``map()`` dispatch (and, summed, a pool life)."""

    tasks: int = 0
    chunks: int = 0
    chunk_size: int = 0
    steals: int = 0
    hydrates: int = 0
    hydrate_s: float = 0.0
    #: Executors replaced after a worker died mid-dispatch.
    restarts: int = 0
    #: Busy worker-seconds over (workers * dispatch wall time); 0 when
    #: not measured (in-process dispatches).
    utilization: float = 0.0

    def absorb(self, other: "DispatchStats") -> None:
        self.tasks += other.tasks
        self.chunks += other.chunks
        self.chunk_size = other.chunk_size or self.chunk_size
        self.steals += other.steals
        self.hydrates += other.hydrates
        self.hydrate_s += other.hydrate_s
        self.restarts += other.restarts
        self.utilization = other.utilization or self.utilization

    def to_dict(self) -> Dict[str, object]:
        return {
            "tasks": self.tasks,
            "chunks": self.chunks,
            "chunk_size": self.chunk_size,
            "steals": self.steals,
            "hydrates": self.hydrates,
            "hydrate_ms": round(self.hydrate_s * 1e3, 3),
            "restarts": self.restarts,
            "utilization": round(self.utilization, 4),
        }


@dataclass
class PoolStats(DispatchStats):
    """Lifetime accounting of a :class:`WorkerPool`."""

    workers: int = 0
    dispatches: int = 0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "workers": self.workers,
            "dispatches": self.dispatches,
        }
        out.update(DispatchStats.to_dict(self))
        return out


def chunk_count(tasks: int, jobs: int, chunk_size: Optional[int] = None
                ) -> Tuple[int, int]:
    """(chunk size, number of chunks) for a dispatch.

    The default sizes chunks at ``tasks // (jobs * K)`` (at least 1), so
    a dispatch yields about ``jobs * K`` chunks: enough slack for idle
    workers to steal from slow peers, coarse enough that per-chunk
    submit/pickle overhead stays negligible.
    """
    if tasks <= 0:
        return 0, 0
    size = chunk_size if chunk_size is not None \
        else max(1, tasks // (max(1, jobs) * CHUNK_OVERSUBSCRIBE))
    if size < 1:
        raise ExplorationError(f"chunk size must be >= 1, got {size}")
    return size, -(-tasks // size)


class WorkerPool:
    """A persistent, snapshot-hydrated pool of worker processes.

    Unlike a per-call ``with ProcessPoolExecutor(...)`` block, a
    ``WorkerPool`` keeps its workers — and the layers they hydrated —
    alive across ``explore()`` calls, strategies, and problems.  Workers
    hydrate the pool's snapshot exactly once, in the pool initializer,
    so no task ever pays the layer build.  Close the pool explicitly
    (:meth:`close`) or use it as a context manager::

        with WorkerPool(jobs=4, snapshot=snap) as pool:
            explore(problem, pool=pool)
            explore(problem, strategy="bnb", pool=pool)

    ``map()`` is order-preserving and deterministic: chunks complete in
    arbitrary order, results are re-sorted by task index.
    """

    def __init__(self, jobs: int = 1,
                 snapshot: Optional[LayerSnapshot] = None,
                 chunk_size: Optional[int] = None,
                 trace: Optional[TraceContext] = None):
        if jobs < 1:
            raise ExplorationError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ExplorationError(
                f"chunk size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        self.snapshot = snapshot
        self.chunk_size = chunk_size
        #: Base trace context shipped to the pool initializer so startup
        #: hydration lands in the merged trace.
        self.trace = trace
        self.stats = PoolStats(workers=jobs)
        self.last_dispatch = DispatchStats()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def started(self) -> bool:
        """True once worker processes exist (first dispatch or
        :meth:`warm`)."""
        return self._executor is not None

    def warm(self) -> "WorkerPool":
        """Start the workers (and snapshot hydration) now instead of on
        the first dispatch — useful to keep hydration out of timed runs."""
        self._ensure_executor()
        return self

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ExplorationError("worker pool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_pool_initializer,
                initargs=(self.snapshot, self.trace))
        return self._executor

    def _discard_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Shut the workers down; idempotent.  Further dispatches raise."""
        self._closed = True
        self._discard_executor()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def map(self, tasks: Sequence[BranchTask]) -> List[BranchResult]:
        """Evaluate every task; results come back in task order.

        Each task's ``layer_factory`` is pickled first, so a factory no
        worker could receive fails here, before anything is dispatched.
        A worker returning an error result raises here too — a crashed
        branch must not be silently dropped from the frontier.
        """
        if self._closed:
            raise ExplorationError("worker pool is closed")
        tasks = list(tasks)
        for task in tasks:
            # Raises for a factory no worker could receive.
            if task.problem.layer_factory is not None:
                _factory_key(task.problem.layer_factory)
        dispatch = DispatchStats(tasks=len(tasks))
        if self.jobs == 1 or len(tasks) <= 1:
            results = [evaluate_branch(task) for task in tasks]
        else:
            self._check_shippable(tasks)
            results = self._map_chunked(tasks, dispatch)
        for result in results:
            dispatch.hydrate_s += result.hydrate_s
            if result.hydrated:
                dispatch.hydrates += 1
        self.last_dispatch = dispatch
        self.stats.dispatches += 1
        self.stats.absorb(dispatch)
        for result in results:
            if result.error is not None:
                raise ExplorationError(
                    f"branch {result.label!r} failed: {result.error}")
        return results

    def _map_chunked(self, tasks: List[BranchTask],
                     dispatch: DispatchStats) -> List[BranchResult]:
        # dsa: allow[DSA040] -- utilization telemetry; never digested
        started = time.perf_counter()
        size, _ = chunk_count(len(tasks), self.jobs, self.chunk_size)
        indexed = list(enumerate(tasks))
        pending = {start: indexed[start:start + size]
                   for start in range(0, len(indexed), size)}
        dispatch.chunks = len(pending)
        dispatch.chunk_size = size
        out: List[Optional[BranchResult]] = [None] * len(tasks)
        per_worker: Dict[str, int] = {}
        busy_s = 0.0
        while pending:
            executor = self._ensure_executor()
            try:
                # One future per chunk: the executor's shared queue IS
                # the work-stealing deque — a worker that drains its
                # chunk pulls the next pending one, however slow its
                # peers are.
                futures: Dict[Future, int] = {
                    executor.submit(evaluate_chunk, chunk): start
                    for start, chunk in pending.items()}
                for future in as_completed(futures):
                    chunk_result = future.result()
                    del pending[futures[future]]
                    per_worker[chunk_result.worker] = \
                        per_worker.get(chunk_result.worker, 0) + 1
                    busy_s += chunk_result.elapsed_s
                    dispatch.hydrates += chunk_result.init_hydrates
                    dispatch.hydrate_s += chunk_result.init_hydrate_s
                    for index, result in chunk_result.results:
                        out[index] = result
            except BrokenProcessPool as exc:
                # A worker died (os._exit, a signal, the OOM killer) and
                # took the executor with it.  Start a fresh one for the
                # chunks still pending, once per dispatch.
                self._discard_executor()
                if dispatch.restarts:
                    raise ExplorationError(
                        f"worker pool broke again after a restart, with "
                        f"{len(pending)} of {dispatch.chunks} chunk(s) "
                        f"unfinished: {exc}") from exc
                dispatch.restarts += 1
        # dsa: allow[DSA040] -- utilization telemetry; never digested
        elapsed = time.perf_counter() - started
        # Deterministic merge: `out` is indexed by task position, so the
        # arbitrary completion order above cannot reorder outcomes.
        results = [result for result in out if result is not None]
        # A worker's first chunk is its fair share; every further chunk
        # it completed was stolen from the shared queue.
        dispatch.steals = sum(n - 1 for n in per_worker.values() if n > 1)
        if elapsed > 0:
            dispatch.utilization = min(
                1.0, busy_s / (elapsed * self.jobs))
        return results

    @staticmethod
    def _check_shippable(tasks: Sequence[BranchTask]) -> None:
        for task in tasks:
            if task.problem.layer_factory is None \
                    and task.problem.snapshot is None:
                raise ExplorationError(
                    "worker processes need a picklable layer_factory or "
                    "a LayerSnapshot on the problem (a live "
                    "DesignSpaceLayer cannot cross process boundaries)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            "warm" if self.started else "cold")
        return (f"<WorkerPool jobs={self.jobs} {state} "
                f"dispatches={self.stats.dispatches}>")
