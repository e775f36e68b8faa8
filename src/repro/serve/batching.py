"""Single-flight batching of prune evaluations across sessions.

Many concurrent designers standing at the same point of the design
space (same layer epoch, same position, same decisions + requirements)
would each pay a full indexed prune.  The batcher collapses them: the
first thread in becomes the *leader* and computes; every other thread
with the same key becomes a *follower* and blocks on the leader's
:class:`threading.Event` instead of recomputing.  Completed results park
in a bounded LRU keyed by the same tuple, so sessions arriving shortly
after the flight lands still share it.

Keys embed the layer's epoch, so a layer mutation naturally strands
old entries — they age out of the LRU, and
:meth:`PruneBatcher.invalidate` clears them eagerly on shutdown or in
tests.

Results must be immutable/shared-safe (prune-derived plain-data
payloads are; see ``DesignSpaceService._report_payload``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, TypeVar

T = TypeVar("T")

#: Default number of parked prune results kept per service.
DEFAULT_CAPACITY = 1024


class _Flight:
    """One in-progress computation, published through an Event.

    ``result``/``error`` are written by the leader strictly before
    ``event.set()`` and read by followers strictly after
    ``event.wait()`` — the Event is the synchronization, no lock needed.
    """

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[object] = None
        self.error: Optional[BaseException] = None


class PruneBatcher:
    """Coalesce identical evaluations; cache the last ``capacity``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 metrics: Optional[object] = None) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, _Flight] = {}
        self._results: "OrderedDict[Hashable, object]" = OrderedDict()
        self._capacity = int(capacity)
        if metrics is not None:
            self._leaders = metrics.counter(
                "dsl_prune_batch_leads_total",
                "Prune evaluations actually computed by a batch leader")
            self._followers = metrics.counter(
                "dsl_prune_batch_coalesced_total",
                "Prune evaluations coalesced onto an in-flight leader")
            self._hits = metrics.counter(
                "dsl_prune_batch_hits_total",
                "Prune evaluations served from the parked-result cache")
        else:
            self._leaders = None
            self._followers = None
            self._hits = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def evaluate(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Return ``compute()`` for ``key``, sharing work across threads.

        An unhashable key skips batching entirely.  Leader exceptions
        propagate to the leader *and* to every coalesced follower of
        that flight; failed flights are not cached, so the next request
        retries.
        """
        try:
            # dsa: allow[DSA042] -- hashability probe; the value is discarded
            hash(key)
        except TypeError:
            return compute()
        with self._lock:
            if key in self._results:
                self._results.move_to_end(key)
                hit = self._results[key]
                if self._hits is not None:
                    self._hits.inc()
                return hit  # type: ignore[return-value]
            flight = self._inflight.get(key)
            leading = flight is None
            if flight is None:
                flight = self._inflight[key] = _Flight()
        if not leading:
            if self._followers is not None:
                self._followers.inc()
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result  # type: ignore[return-value]
        if self._leaders is not None:
            self._leaders.inc()
        try:
            result = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.result = result
        with self._lock:
            self._inflight.pop(key, None)
            self._results[key] = result
            while len(self._results) > self._capacity:
                self._results.popitem(last=False)
        flight.event.set()
        return result

    def invalidate(self) -> int:
        """Drop every parked result; returns how many were dropped."""
        with self._lock:
            dropped = len(self._results)
            self._results = OrderedDict()
        return dropped
