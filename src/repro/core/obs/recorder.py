"""Recorders: the sink instrumented code talks to.

Two implementations share one duck-typed surface:

* :data:`NULL_RECORDER` (a :class:`NullRecorder`) — the default on every
  layer.  Every method is a constant-time no-op, so instrumented hot
  paths pay only an attribute load and a call; the 50k-core pruning
  benchmark measures the residue at well under the 3% budget.
* :class:`TraceRecorder` — appends :class:`~repro.core.obs.events.TraceEvent`
  records to an in-memory list, tracks span nesting, and feeds a
  :class:`~repro.core.obs.metrics.MetricsRegistry` as events arrive.

The trace recorder is safe under concurrent emitters: one lock guards
the sequence counter and event list, and span nesting stacks are kept
per thread, so sessions running in several threads (served sessions on
their handler threads) can share the layer's recorder without
corrupting the stream (events interleave in emission order; per-thread
parentage stays correct).

Instrumented code MUST guard any payload computation that is not free
behind ``recorder.enabled`` — the recorder cannot refuse work the caller
already did.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.obs import events as ev
from repro.core.obs.events import TraceEvent
from repro.core.obs.metrics import Counter, MetricsRegistry


class _NullSpan:
    """Reusable no-op context manager returned by :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def note(self, **payload: Any) -> None:
        """Attach payload to the span (no-op here)."""


NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: observes nothing, costs (almost) nothing."""

    enabled = False
    #: Empty, immutable event view (mirrors ``TraceRecorder.events``).
    events: tuple = ()

    def emit(self, kind: str, **payload: Any) -> None:
        return None

    def span(self, kind: str, **payload: Any) -> _NullSpan:
        return NULL_SPAN

    def wrap_tools(self, tools: Mapping[str, Callable]
                   ) -> Mapping[str, Callable]:
        """Estimation tools pass through untouched when disabled."""
        return tools

    def next_session(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullRecorder>"


#: The shared disabled recorder every layer starts with.
NULL_RECORDER = NullRecorder()


class Span:
    """A timed region of the trace; a context manager.

    Entering pushes the span on the recorder's nesting stack (events
    emitted inside become its children); exiting emits one
    :class:`TraceEvent` carrying the measured ``duration_s``.  Use
    :meth:`note` inside the ``with`` block to attach result payload —
    after exit the event is frozen.
    """

    __slots__ = ("_recorder", "kind", "payload", "span_id", "_at",
                 "_start", "_parent")

    def __init__(self, recorder: "TraceRecorder", kind: str,
                 payload: Dict[str, Any]):
        self._recorder = recorder
        self.kind = kind
        self.payload = payload
        self.span_id = recorder._next_span_id()
        self._at = 0.0
        self._start = 0.0
        self._parent: Optional[int] = None

    def __enter__(self) -> "Span":
        recorder = self._recorder
        self._at = recorder._wall()
        self._start = recorder._clock()
        self._parent = recorder._enter_span(self.span_id)
        return self

    def note(self, **payload: Any) -> None:
        """Merge payload into the span's event before it closes."""
        self.payload.update(payload)

    def __exit__(self, *exc: object) -> bool:
        self._recorder._finish_span(self)
        return False


class TraceRecorder:
    """Append-only event stream + derived metrics.

    Safe under concurrent emitters: ``_lock`` serializes sequence
    assignment and list appends, and span nesting is tracked per thread
    (keyed on ``threading.get_ident()``), so sessions on concurrent
    threads interleave whole events without tearing and keep correct
    per-thread parentage.  The hot path stays one lock
    acquisition per event — the traced 50k-core walk holds its x1.10
    overhead budget (``benchmarks/test_bench_obs.py``).
    """

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 wall: Callable[[], float] = time.time):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events: List[TraceEvent] = []
        self._clock = clock
        self._wall = wall
        self._t0 = clock()
        self._seq = 0
        self._span_ids = 0
        self._sessions = 0
        self._lock = threading.Lock()
        #: Per-thread span nesting stacks, keyed by thread ident.
        self._span_stacks: Dict[int, List[int]] = {}
        #: Per-event counter handles in ``self.metrics``, keyed by
        #: (metric name, event kind); see :meth:`_kind_counter`.
        self._kind_counters: Dict[Tuple[str, str], Counter] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _next_span_id(self) -> int:
        with self._lock:
            self._span_ids += 1
            return self._span_ids

    def _enter_span(self, span_id: int) -> Optional[int]:
        """Push ``span_id`` on this thread's stack; return the parent."""
        with self._lock:
            stack = self._span_stacks.setdefault(threading.get_ident(), [])
            parent = stack[-1] if stack else None
            stack.append(span_id)
            return parent

    def next_session(self) -> int:
        """A fresh session id for a session announcing itself."""
        with self._lock:
            self._sessions += 1
            return self._sessions

    def clear(self) -> None:
        """Drop recorded events and start a fresh metrics registry."""
        with self._lock:
            self.events.clear()
            self.metrics = MetricsRegistry()
            self._kind_counters = {}
            self._span_stacks.clear()
            self._t0 = self._clock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(self, kind: str, **payload: Any) -> TraceEvent:
        """Record one instantaneous event."""
        at = self._wall()
        elapsed = self._clock() - self._t0
        with self._lock:
            stack = self._span_stacks.get(threading.get_ident())
            event = TraceEvent(
                seq=self._seq,
                kind=kind,
                at=at,
                elapsed_s=elapsed,
                payload=payload,
                parent=stack[-1] if stack else None,
            )
            self._seq += 1
            self.events.append(event)
        self._update_metrics(event)
        return event

    def span(self, kind: str, **payload: Any) -> Span:
        """Open a timed span; the event is recorded when it closes."""
        return Span(self, kind, payload)

    def _finish_span(self, span: Span) -> None:
        end = self._clock()
        with self._lock:
            stack = self._span_stacks.get(threading.get_ident())
            if stack and stack[-1] == span.span_id:
                stack.pop()
            elif stack:  # pragma: no cover - defensive against misuse
                try:
                    stack.remove(span.span_id)
                except ValueError:
                    pass
            event = TraceEvent(
                seq=self._seq,
                kind=span.kind,
                at=span._at,
                elapsed_s=span._start - self._t0,
                payload=span.payload,
                duration_s=end - span._start,
                span=span.span_id,
                parent=span._parent,
            )
            self._seq += 1
            self.events.append(event)
        self._update_metrics(event)

    def wrap_tools(self, tools: Mapping[str, Callable]
                   ) -> Dict[str, Callable]:
        """Wrap estimation tools so each invocation records a span."""
        return {name: self._traced_tool(name, fn)
                for name, fn in tools.items()}

    def _traced_tool(self, name: str, fn: Callable) -> Callable:
        def invoke(bindings: Mapping[str, Any]) -> Any:
            with self.span(ev.ESTIMATE_INVOKED, tool=name) as span:
                value = fn(bindings)
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    span.note(value=float(value))
            return value
        return invoke

    # ------------------------------------------------------------------
    # metrics derivation
    # ------------------------------------------------------------------
    def _kind_counter(self, name: str, help: str, kind: str) -> Counter:
        """The ``name{kind=...}`` counter, cached so the per-event path
        skips the registry's label sort and lock."""
        # Read the cache before the registry: clear() swaps the registry
        # first, so a cache that is already the fresh one is never
        # filled from the old registry.
        counters = self._kind_counters
        counter = counters.get((name, kind))
        if counter is None:
            counter = counters[(name, kind)] = self.metrics.counter(
                name, help, kind=kind)
        return counter

    def _update_metrics(self, event: TraceEvent) -> None:
        m = self.metrics
        kind = event.kind
        payload = event.payload
        self._kind_counter("dsl_events_total", "trace events by kind",
                           kind).inc()
        if kind == ev.PRUNE:
            if event.duration_s is not None:
                m.histogram("dsl_prune_seconds",
                            "wall time of actual pruning passes"
                            ).observe(event.duration_s)
            survivors = payload.get("survivors")
            if survivors is not None:
                m.gauge("dsl_surviving_cores",
                        "surviving-core count after the last prune"
                        ).set(survivors)
        elif kind == ev.CONSTRAINT_FIRED:
            m.counter("dsl_constraint_fired_total",
                      "consistency-constraint evaluations",
                      constraint=str(payload.get("constraint", "?"))).inc()
            if event.duration_s is not None:
                m.histogram("dsl_constraint_eval_seconds",
                            "wall time of CC relation evaluations"
                            ).observe(event.duration_s)
        elif kind == ev.ESTIMATE_INVOKED:
            m.counter("dsl_estimate_invocations_total",
                      "early estimation tool runs",
                      tool=str(payload.get("tool", "?"))).inc()
            if event.duration_s is not None:
                m.histogram("dsl_estimate_seconds",
                            "wall time of estimation tool runs"
                            ).observe(event.duration_s)
        elif kind == ev.INDEX_REBUILD:
            m.counter("dsl_index_rebuilds_total",
                      "core index (re)builds",
                      owner=str(payload.get("owner", "?"))).inc()
            if event.duration_s is not None:
                m.histogram("dsl_index_build_seconds",
                            "wall time of core index builds"
                            ).observe(event.duration_s)
            cores = payload.get("cores")
            if cores is not None:
                m.gauge("dsl_indexed_cores",
                        "cores in the most recently built index").set(cores)
        elif kind in (ev.REQUIRE, ev.DECIDE):
            stale = payload.get("stale")
            if stale is not None:
                m.histogram("dsl_reassessment_fanout",
                            "dependents marked stale per designer action",
                            buckets=(0, 1, 2, 4, 8, 16, 32)
                            ).observe(len(stale))
        elif kind == ev.LINT_RUN:
            if event.duration_s is not None:
                m.histogram("dsl_lint_seconds",
                            "wall time of lint runs"
                            ).observe(event.duration_s)
        elif kind == ev.EXPLORE_START:
            m.counter("dsl_explorations_total",
                      "automated exploration runs",
                      strategy=str(payload.get("strategy", "?"))).inc()
        elif kind == ev.BRANCH_OPEN:
            m.counter("dsl_explore_branches_total",
                      "decision branches considered by exploration",
                      result="opened").inc()
        elif kind == ev.BRANCH_PRUNED:
            m.counter("dsl_explore_branches_total",
                      "decision branches considered by exploration",
                      result="pruned",
                      reason=str(payload.get("reason", "?"))).inc()
        elif kind == ev.FRONTIER_UPDATE:
            size = payload.get("size")
            if size is not None:
                m.gauge("dsl_frontier_size",
                        "non-dominated outcomes on the Pareto frontier"
                        ).set(size)
        elif kind == ev.VERIFY_RUN:
            if event.duration_s is not None:
                m.histogram("dsl_verify_seconds",
                            "wall time of semantic verifier runs"
                            ).observe(event.duration_s)
        elif kind == ev.DEAD_BRANCH_PROVED:
            m.counter("dsl_dead_branches_total",
                      "dead-branch proofs by proof kind",
                      kind=str(payload.get("proof_kind", "?"))).inc()
        elif kind == ev.UNSAT_CORE_FOUND:
            m.counter("dsl_unsat_cores_total",
                      "minimal unsat cores extracted").inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecorder {len(self.events)} events>"
