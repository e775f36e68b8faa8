"""The epoch checkout of a served layer.

The federation rebuilds its :class:`~repro.core.index.CoreIndex` when
the layer epoch moves, and :func:`repro.core.verify.engine.analyze_layer`
keeps a per-layer ``(epoch, requirements, start)`` analysis cache.
:class:`SnapshotManager` adds the served verify *report* cache on top
and checks the layer's epoch out once per access: the moment the epoch
moves it drops every cached report, bumping one monotonic
:attr:`generation` counter, so one layer mutation shows up as exactly
one observable bump.

The manager is shared by every server thread, so all attribute writes
sit under ``self._lock`` (see ``repro.analysis`` DSA001).  Verify runs
happen *outside* the lock with a compare-epoch-then-publish step: a
concurrent mutation between compute and publish simply discards the
stale result.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from repro.core.layer import DesignSpaceLayer

#: Cache key of one verify request: canonical requirements + start CDO.
VerifyKey = Tuple[Tuple[Tuple[str, object], ...], Optional[str]]


class SnapshotManager:
    """Epoch-checked facade over one served layer's verify reports.

    ``generation`` counts invalidations, not layer epochs: several
    mutations between two checkouts move the epoch several times but
    invalidate once, so tests and metrics can assert "one observed
    move, one bump" without caring what the layer's epoch values are.
    """

    def __init__(self, layer: DesignSpaceLayer,
                 metrics: Optional[object] = None) -> None:
        self._layer = layer
        self._lock = threading.RLock()
        #: Monotonic invalidation counter; += 1 per observed epoch move.
        self._generation = 0
        #: Layer epoch the caches below were built against; no layer
        #: epoch is negative, so the first checkout always invalidates.
        self._cached_epoch = -1
        self._verify_cache: Dict[VerifyKey, object] = {}
        if metrics is not None:
            self._invalidations = metrics.counter(
                "dsl_snapshot_invalidations_total",
                "Epoch moves observed by the snapshot manager",
                layer=layer.name)
            self._verify_hits = metrics.counter(
                "dsl_verify_cache_hits_total",
                "Verify requests served from the snapshot manager cache",
                layer=layer.name)
        else:
            self._invalidations = None
            self._verify_hits = None

    @property
    def layer(self) -> DesignSpaceLayer:
        return self._layer

    @property
    def epoch(self) -> int:
        """The layer's current epoch."""
        return self._layer.epoch

    @property
    def generation(self) -> int:
        """How many times the caches have been invalidated."""
        with self._lock:
            return self._generation

    def _checkout(self) -> int:
        """Bring the caches up to the layer's current epoch.

        Reentrant (``self._lock`` is an RLock), so callers already
        holding the lock pay nothing extra.  Returns the epoch the
        caches are now valid for.
        """
        with self._lock:
            epoch = self._layer.epoch
            if epoch != self._cached_epoch:
                self._cached_epoch = epoch
                self._verify_cache = {}
                self._generation += 1
                if self._invalidations is not None:
                    self._invalidations.inc()
            return epoch

    def checkout(self) -> int:
        """Public epoch checkout: invalidate if stale, return the epoch.

        Request handlers call this once per request to key batched work
        (see :class:`~repro.serve.batching.PruneBatcher`) to a
        consistent epoch.
        """
        with self._lock:
            return self._checkout()

    def verify(self, requirements: Sequence[Tuple[str, object]] = (),
               start: Optional[str] = None):
        """An epoch-cached :class:`~repro.core.verify.report.VerifyReport`.

        The underlying :func:`~repro.core.verify.engine.analyze_layer`
        keeps its own epoch cache for the analysis half; this cache
        covers the *full report* (diagnostics included) and is dropped
        by the checkout that sees the epoch move.
        """
        try:
            given = tuple(sorted(dict(requirements).items(),
                                 key=lambda kv: kv[0]))
            key: Optional[VerifyKey] = (given, start)
            # dsa: allow[DSA042] -- hashability probe; the value is discarded
            hash(key)
        except TypeError:
            key = None
        with self._lock:
            epoch = self._checkout()
            if key is not None:
                hit = self._verify_cache.get(key)
                if hit is not None:
                    if self._verify_hits is not None:
                        self._verify_hits.inc()
                    return hit
        report = self._layer.verify(requirements=requirements, start=start)
        with self._lock:
            if key is not None and self._checkout() == epoch:
                self._verify_cache[key] = report
        return report
