"""The repo's own concurrency contract, reified as data.

The parallel/serving path (PR 6's ``WorkerPool``s, the planned service
layer) shares state across threads and processes under three rules:

1. **Shared classes are internally synchronized.**  Every class listed in
   :attr:`ConcurrencyContract.shared_classes` may be reached from more
   than one worker at once, so *every* attribute write in its methods
   must sit under a recognized lock — except the *owned mutators*, which
   callers may only invoke while they exclusively own the object (the
   build phase, before a layer is published/snapshot).

2. **Epoch-guarded stores always move their epoch.**  The epoch
   contracts pair each mutable store with the invalidation that keeps
   the index/verify/prune caches honest: either an explicit bump
   (``_bump()`` / ``_touch()`` / ``self._epoch += 1``) or — for *derived*
   epochs computed from store lengths — an insert-only discipline
   (membership guard that raises on duplicates, so a write always
   changes ``len``).

3. **Hydrated layers are frozen.**  Worker-side code may read a layer
   obtained from a snapshot/cache (``_hydrate_snapshot``,
   ``LayerSnapshot.hydrate``, ``_worker_layer``, ``_LAYER_CACHE.get``)
   but never call a representation mutator or install a recorder on it.

The static passes (:mod:`~repro.analysis.races`,
:mod:`~repro.analysis.epochs`, :mod:`~repro.analysis.snapshots`) check
these rules over the AST; the runtime sanitizer
(:mod:`~repro.analysis.sanitizer`) enforces rule 3 dynamically under
``DSL_SANITIZE=1``.  Tests construct custom contracts to analyze
synthetic fixture modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Tuple


@dataclass(frozen=True)
class EpochContract:
    """Pairs one class's mutable stores with its epoch invalidation.

    ``derived`` epochs are computed from store sizes/versions (the layer
    signature), so instead of a bump call the contract demands an
    insert-only guard on subscript writes.
    """

    class_name: str
    stores: Tuple[str, ...]
    bump_methods: Tuple[str, ...] = ()
    epoch_attrs: Tuple[str, ...] = ()
    derived: bool = False


@dataclass(frozen=True)
class ConcurrencyContract:
    """Everything the analyzer needs to know about sharing rules."""

    #: Classes whose instances may be visible to several workers at once.
    shared_classes: FrozenSet[str] = frozenset()

    #: Per shared class: methods the ownership contract exempts from the
    #: lock requirement (only the single owner may call them; the
    #: sanitizer backstops this at runtime).
    owned_mutators: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    #: Classes that are never shared at all, with the reason (documented
    #: so the analyzer's silence on them is auditable).
    single_owner: Mapping[str, str] = field(default_factory=dict)

    #: Store-to-epoch pairings checked by the epoch verifier.
    epoch_contracts: Tuple[EpochContract, ...] = ()

    #: Module-level functions whose return value is a hydrated layer
    #: shared across tasks.
    hydration_functions: FrozenSet[str] = frozenset()

    #: Method names whose return value is a hydrated layer (``hydrate``).
    hydration_methods: FrozenSet[str] = frozenset()

    #: ``GLOBAL.method`` call chains whose return value is a hydrated
    #: layer (``_LAYER_CACHE.get``).
    hydration_chains: FrozenSet[str] = frozenset()

    #: Representation mutators that must never run on a hydrated layer.
    layer_mutators: FrozenSet[str] = frozenset()

    #: Extra concurrency entry points (``module:qualname``) beyond the
    #: auto-detected executor submissions/initializers/Thread targets.
    extra_entry_points: FrozenSet[str] = frozenset()

    # -- lock registry (deadlock pass, DSA03x) -------------------------

    #: Canonical lock-acquisition order, outermost first.  Lock ids are
    #: the inventory's canonical form: ``Class.attr`` for instance locks
    #: and ``module:NAME`` for module-level locks.  The deadlock pass
    #: reports any graph edge that runs *against* this order (DSA030)
    #: even when no full cycle exists yet — a one-sided inversion is a
    #: deadlock waiting for its second half to be written.
    lock_order: Tuple[str, ...] = ()

    #: Lock ids asserted re-entrant beyond what their factory proves
    #: (an RLock passed into ``Condition(lock)``, a wrapper class).
    reentrant_locks: FrozenSet[str] = frozenset()

    #: ``module:qualname`` -> justification for functions allowed to
    #: block while holding a lock (DSA032).  Every entry is audited
    #: against live code by the self-check suite.
    blocking_allowed: Mapping[str, str] = field(default_factory=dict)

    # -- determinism registry (determinism pass, DSA04x) ---------------

    #: ``module:qualname`` entry points whose transitive call graph must
    #: be free of nondeterminism: digest/canonical-byte producers.
    digest_entry_points: FrozenSet[str] = frozenset()

    #: ``module:qualname`` -> reason: functions the determinism walk
    #: does not descend into (their output provably never reaches the
    #: digest bytes, e.g. metrics side-channels).
    determinism_boundaries: Mapping[str, str] = field(default_factory=dict)


#: The live contract for this repository.
DEFAULT_CONTRACT = ConcurrencyContract(
    shared_classes=frozenset({
        "DesignSpaceLayer",
        "LibraryFederation",
        "ReuseLibrary",
        "DesignObject",
        "ConstraintSet",
        "CoreIndex",
        "MetricsRegistry",
        "Counter",
        "Gauge",
        "Histogram",
        "_LayerCache",
        "_HydrationLog",
        # Served sessions on concurrent handler threads emit into one
        # layer's recorder, and the engine absorbs worker buffers into
        # it from the dispatch thread.
        "TraceRecorder",
        "_InitTraceLog",
        # The service layer (repro.serve): every handler thread of the
        # ThreadingHTTPServer may reach these.
        "SnapshotManager",
        "SessionManager",
        "ServedSession",
        "PruneBatcher",
        "DesignSpaceService",
        "DesignSpaceServer",
    }),
    owned_mutators={
        "DesignSpaceLayer": frozenset({
            "add_root", "add_alias", "add_constraint", "register_tool",
            "attach_library", "observe",
        }),
        "LibraryFederation": frozenset({"attach", "detach", "observe"}),
        "ReuseLibrary": frozenset({"add", "add_all", "remove", "observe",
                                   "_bump"}),
        "DesignObject": frozenset({"set_property", "set_merit", "set_view",
                                   "_touch"}),
        "ConstraintSet": frozenset({"add"}),
    },
    single_owner={
        "WorkerTraceBuffer": (
            "a buffer captures exactly one sampled branch task inside one "
            "worker; it crosses the pool boundary as plain data and is "
            "absorbed by the engine, never shared live"),
        "ExplorationSession": (
            "each worker builds its own session over the shared layer; "
            "sessions are never handed live across threads — the server "
            "wraps each one in a ServedSession whose lock serializes "
            "handler threads, so the session still sees one thread at a "
            "time"),
        "_Flight": (
            "single-flight publication cell: the leader writes "
            "result/error strictly before event.set() and followers "
            "read strictly after event.wait(); the Event is the "
            "synchronization"),
    },
    epoch_contracts=(
        EpochContract("DesignObject",
                      stores=("_properties", "_merits", "_views"),
                      bump_methods=("_touch",)),
        EpochContract("ReuseLibrary",
                      stores=("_cores",),
                      bump_methods=("_bump",),
                      epoch_attrs=("_epoch",)),
        EpochContract("LibraryFederation",
                      stores=("_libraries",),
                      epoch_attrs=("_epoch",)),
        EpochContract("DesignSpaceLayer",
                      stores=("_roots", "_aliases", "_tools"),
                      epoch_attrs=("_epoch",),
                      derived=True),
        EpochContract("ConstraintSet",
                      stores=("_constraints",),
                      derived=True),
    ),
    hydration_functions=frozenset({"_hydrate_snapshot", "_worker_layer"}),
    hydration_methods=frozenset({"hydrate"}),
    hydration_chains=frozenset({"_LAYER_CACHE.get"}),
    layer_mutators=frozenset({
        "add_root", "add_alias", "add_constraint", "register_tool",
        "attach_library", "attach", "detach", "add", "add_all", "remove",
        "set_property", "set_merit", "set_view",
    }),
    extra_entry_points=frozenset({
        "repro.core.explore.parallel:evaluate_branch",
        "repro.core.explore.parallel:evaluate_chunk",
        "repro.core.explore.parallel:_pool_initializer",
        # Every HTTP handler thread enters the service through these.
        "repro.serve.http:ServiceRequestHandler.do_GET",
        "repro.serve.http:ServiceRequestHandler.do_POST",
        "repro.serve.app:DesignSpaceService.handle",
    }),
    # The canonical acquisition order, outermost first: service wrapper
    # locks before session state, session state before the caches it
    # refreshes, domain-layer locks before the observability leaves.
    # Every edge the deadlock pass derives must run forward through this
    # list; an edge running backward is an inversion even before the
    # matching reverse edge exists.
    lock_order=(
        "DesignSpaceServer._lock",
        "DesignSpaceService._lock",
        "SessionManager._lock",
        "ServedSession._lock",
        "SnapshotManager._lock",
        "PruneBatcher._lock",
        "DesignSpaceLayer._cache_lock",
        "LibraryFederation._lock",
        "ReuseLibrary._lock",
        "repro.core.serialize:_HYDRATOR_LOCK",
        "_LayerCache._lock",
        "_HydrationLog._lock",
        "_InitTraceLog._lock",
        "TraceRecorder._lock",
        "MetricsRegistry._lock",
        "Counter._lock",
        "Gauge._lock",
        "Histogram._lock",
        "repro.analysis.sanitizer:_STATE_LOCK",
    ),
    digest_entry_points=frozenset({
        # the merged-trace canonical byte stream (PR 8's oracle)
        "repro.core.obs.context:canonical_trace_bytes",
        "repro.core.obs.context:canonical_trace_digest",
        # frontier/prune digests compared across job counts and sessions
        "repro.core.explore.outcome:ParetoFrontier.digest",
        "repro.core.pruning:PruneReport.digest",
        # worker snapshot capture: identical layers must capture
        # identical bytes, or pool hydration diverges per worker
        "repro.core.serialize:LayerSnapshot.capture",
        # the serving stack's canonical byte serialization, plus the
        # payload builders behind it: DesignSpaceService.handle
        # dispatches through a bound-method table the static call graph
        # cannot follow, so the route handlers that assemble
        # digest-compared payloads are declared entry points themselves
        "repro.serve.app:canonical_json",
        "repro.serve.app:DesignSpaceService.handle_json",
        "repro.serve.app:DesignSpaceService._handle_query",
        "repro.serve.app:DesignSpaceService._handle_verify",
        "repro.serve.app:DesignSpaceService._handle_explore",
        "repro.serve.app:DesignSpaceService._handle_session_open",
        "repro.serve.app:DesignSpaceService._state_payload",
        "repro.serve.app:DesignSpaceService._report_payload",
    }),
)
