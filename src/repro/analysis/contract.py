"""The repo's own concurrency contract, reified as data.

The serving stack (:mod:`repro.serve`) shares state across handler
threads under two rules:

1. **Shared classes are internally synchronized.**  Every class listed in
   :attr:`ConcurrencyContract.shared_classes` may be reached from more
   than one thread at once, so *every* attribute write in its methods
   must sit under a recognized lock — except the *owned mutators*, which
   callers may only invoke while they exclusively own the object (the
   build phase, before a layer is published).

2. **Epoch-guarded stores always move their epoch.**  The epoch
   contracts pair each mutable store with the invalidation that keeps
   the index/verify/prune caches honest: an explicit bump
   (``_bump()`` / ``_touch()`` / ``_touch_structure()`` /
   ``self._epoch += 1``) in every method that writes the store.

The static passes (:mod:`~repro.analysis.races`,
:mod:`~repro.analysis.epochs`) check these rules over the AST.  Tests
construct custom contracts to analyze synthetic fixture modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Tuple


@dataclass(frozen=True)
class EpochContract:
    """Pairs one class's mutable stores with its epoch invalidation."""

    class_name: str
    stores: Tuple[str, ...]
    bump_methods: Tuple[str, ...] = ()
    epoch_attrs: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ConcurrencyContract:
    """Everything the analyzer needs to know about sharing rules."""

    #: Classes whose instances may be visible to several threads at once.
    shared_classes: FrozenSet[str] = frozenset()

    #: Per shared class: methods the ownership contract exempts from the
    #: lock requirement (only the single owner may call them).
    owned_mutators: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    #: Classes that are never shared at all, with the reason (documented
    #: so the analyzer's silence on them is auditable).
    single_owner: Mapping[str, str] = field(default_factory=dict)

    #: Store-to-epoch pairings checked by the epoch verifier.
    epoch_contracts: Tuple[EpochContract, ...] = ()

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
        # Served sessions on concurrent handler threads emit into one
        # layer's recorder.
        "TraceRecorder",
        # The service layer (repro.serve): every handler thread of the
        # ThreadingHTTPServer may reach these.
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
        "LibraryFederation": frozenset({"attach", "detach"}),
        "ReuseLibrary": frozenset({"add", "add_all", "remove"}),
        "DesignObject": frozenset({"set_property", "set_merit", "set_view",
                                   "_touch"}),
        "ConstraintSet": frozenset({"add"}),
    },
    single_owner={
        "ExplorationSession": (
            "each caller builds its own session over the shared layer; "
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
                      bump_methods=("_bump",)),
        EpochContract("LibraryFederation",
                      stores=("_libraries",),
                      bump_methods=("_bump",),
                      epoch_attrs=("_epoch",)),
        EpochContract("DesignSpaceLayer",
                      stores=("_roots", "_aliases", "_tools"),
                      bump_methods=("_bump",),
                      epoch_attrs=("_epoch",)),
        EpochContract("ConstraintSet",
                      stores=("_constraints",),
                      bump_methods=("_bump",)),
        EpochContract("ClassOfDesignObjects",
                      stores=("_children", "_properties"),
                      bump_methods=("_touch_structure",)),
    ),
    extra_entry_points=frozenset({
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
        "PruneBatcher._lock",
        "DesignSpaceLayer._cache_lock",
        "LibraryFederation._lock",
        "TraceRecorder._lock",
        "MetricsRegistry._lock",
        "Counter._lock",
        "Gauge._lock",
        "Histogram._lock",
    ),
    digest_entry_points=frozenset({
        # frontier/prune digests compared across runs and sessions
        "repro.core.explore.outcome:ParetoFrontier.digest",
        "repro.core.pruning:PruneReport.digest",
        "repro.core.index:IndexedPruneReport.digest",
        "repro.core.index:CoreIndex.ids_digest",
        # the engine reaches these through the strategy object
        # (``self._strategy.search(ctx)``), a dispatch the static call
        # graph cannot follow; each builds the frontier a digest reads
        "repro.core.explore.strategies:ExhaustiveStrategy.search",
        "repro.core.explore.strategies:BranchAndBoundStrategy.search",
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
