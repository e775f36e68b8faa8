"""Distributed tracing plumbing for parallel exploration.

Parallel branch evaluation is shared-nothing by design: process workers
hydrate their own layers from a :class:`~repro.core.serialize.LayerSnapshot`
and never see the parent layer's :class:`~repro.core.obs.recorder.TraceRecorder`.
This module is the bridge that lets the *record of the exploration
process* survive that boundary anyway:

* :class:`TraceContext` — a small, picklable identity card (trace id,
  parent span id, per-branch sampling decision) the engine threads
  through :class:`~repro.core.explore.problem.ExplorationProblem` into
  every branch task and into the pool initializer.
* :class:`WorkerTraceBuffer` — a bounded, drop-counted buffer of
  plain-data events a worker fills while evaluating one branch.  The
  buffer travels back inside :class:`~repro.core.explore.parallel.BranchResult`
  as a list of dicts and the engine merges it deterministically
  (task-index order, seq renumbering, spans reparented under the
  corresponding ``branch_open`` anchor) via
  :meth:`TraceRecorder.absorb <repro.core.obs.recorder.TraceRecorder.absorb>`.
* :func:`canonical_trace_bytes` — the byte-stable serialization of a
  merged trace.  Raw events carry wall-clock timestamps, worker ids,
  and scheduling-dependent hydration/chunking records; the canonical
  form strips exactly those volatile parts so the remainder is
  byte-identical across job counts, chunk sizes and the in-process
  dispatch — the trace-level analogue of the frontier digest.

Sampling is deterministic: the decision for branch *i* is a pure
function of ``(trace_id, i)``, and the adaptive default rate depends
only on the fan-out, never on scheduling — so the *set* of traced
branches is identical across all pool configurations.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.obs import events as ev
from repro.core.obs.events import TraceEvent

#: Default per-task event capacity of a :class:`WorkerTraceBuffer`.
DEFAULT_BUFFER_LIMIT = 2048

#: Fan-out size up to which every branch is traced by default.
FULL_TRACE_TASKS = 16

#: Adaptive sampling never drops below this rate.
MIN_SAMPLE_RATE = 0.02

#: Event kinds that depend on scheduling (which worker hydrated, how
#: chunks were cut/stolen) and are therefore excluded from the
#: canonical byte form of a trace.
VOLATILE_KINDS = frozenset({
    ev.WORKER_HYDRATE, ev.CHUNK_DISPATCH, ev.CHUNK_STEAL,
})

#: Payload keys whose values are timing- or placement-dependent
#: (``events``/``dropped`` counts include scheduling-dependent
#: initializer records drained by whichever sampled task ran first).
VOLATILE_PAYLOAD_KEYS = frozenset({
    "worker", "seconds", "utilization", "hydrate_s", "elapsed_ms",
    "events", "dropped", "jobs", "chunk_size",
})


def adaptive_sample_rate(tasks: int) -> float:
    """Default per-branch sampling rate for a fan-out of ``tasks``.

    Small fan-outs are traced in full; past :data:`FULL_TRACE_TASKS`
    the rate decays as ``FULL_TRACE_TASKS / tasks`` (floored at
    :data:`MIN_SAMPLE_RATE`) so the expected number of traced branches
    stays roughly constant and the overhead budget holds no matter how
    wide the root fan-out grows.  The result depends only on the task
    count — identical across job counts.
    """
    if tasks <= FULL_TRACE_TASKS:
        return 1.0
    return max(FULL_TRACE_TASKS / float(tasks), MIN_SAMPLE_RATE)


@dataclass(frozen=True)
class TraceContext:
    """Picklable tracing identity threaded through parallel dispatch.

    The engine derives one base context per traced run
    (:meth:`derive`), stamps each branch task with
    :meth:`for_task`, and hands the base context to the pool
    initializer so even process startup hydration is attributable to
    the trace.  ``sampled`` is a pure function of
    ``(trace_id, task_index)`` — no randomness, no clock — so the set
    of traced branches is reproducible and scheduling-independent.
    """

    trace_id: str
    sample_rate: float = 1.0
    task_index: Optional[int] = None
    #: Span id of the parent-trace ``branch_open`` anchor this task's
    #: events will be reparented under (engine-assigned).
    parent_span: Optional[int] = None
    buffer_limit: int = DEFAULT_BUFFER_LIMIT

    @classmethod
    def derive(cls, *seed: Any, sample_rate: Optional[float] = None,
               tasks: int = 0, buffer_limit: int = DEFAULT_BUFFER_LIMIT,
               ) -> "TraceContext":
        """Build a context with a content-derived trace id.

        ``seed`` is any deterministic description of the run (the
        engine passes the problem's start/metrics/requirements/decision
        prefix plus the strategy name).  When ``sample_rate`` is None
        the adaptive default for ``tasks`` applies.
        """
        digest = hashlib.sha256(repr(seed).encode("utf-8")).hexdigest()
        rate = (adaptive_sample_rate(tasks)
                if sample_rate is None else float(sample_rate))
        rate = min(max(rate, 0.0), 1.0)
        return cls(trace_id=digest[:16], sample_rate=rate,
                   buffer_limit=int(buffer_limit))

    def for_task(self, index: int,
                 parent_span: Optional[int] = None) -> "TraceContext":
        """The per-branch context for task ``index``."""
        return replace(self, task_index=index, parent_span=parent_span)

    @property
    def sampled(self) -> bool:
        """Deterministic sampling decision for this task.

        A context without a task index (the base / initializer context)
        counts as sampled whenever the rate is non-zero, so process
        startup hydration is recorded iff any branch could be traced.
        """
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0 or self.task_index is None:
            return True
        token = f"{self.trace_id}:{self.task_index}".encode("utf-8")
        word = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
        return word / float(1 << 64) < self.sample_rate


class WorkerTraceBuffer:
    """Bounded per-task event buffer a worker fills while evaluating
    one branch.

    Exposes the recorder duck type (``enabled`` / :meth:`emit` /
    :meth:`span` / :meth:`wrap_tools` / :meth:`next_session`) so a
    :class:`~repro.core.explore.engine.SearchContext` can route its
    strategy events here without knowing it is running in a worker.
    Events are stored as plain dicts (the :meth:`TraceEvent.to_dict
    <repro.core.obs.events.TraceEvent.to_dict>` shape) so the drained
    buffer pickles across process boundaries without dragging clocks or
    locks along.  Once ``limit`` events are recorded further events are
    dropped and counted — a full buffer truncates the tail rather than
    growing without bound inside a worker.

    A buffer belongs to exactly one task on one thread; it is not (and
    need not be) thread-safe.
    """

    enabled = True

    def __init__(self, context: TraceContext,
                 clock: Callable[[], float] = time.perf_counter,
                 wall: Callable[[], float] = time.time):
        self.context = context
        self.limit = max(int(context.buffer_limit), 1)
        self.records: List[Dict[str, Any]] = []
        self.dropped = 0
        self._clock = clock
        self._wall = wall
        self._t0 = clock()
        self._seq = 0
        self._span_ids = 0
        self._span_stack: List[int] = []

    # -- recorder duck type -------------------------------------------
    def emit(self, kind: str, **payload: Any) -> Optional[Dict[str, Any]]:
        """Record one instantaneous event (dropped when full)."""
        return self._record(kind, payload, at=self._wall(),
                            elapsed_s=self._clock() - self._t0,
                            parent=self._current_span())

    def span(self, kind: str, **payload: Any) -> "_BufferSpan":
        return _BufferSpan(self, kind, payload)

    def emit_timed(self, kind: str, duration_s: float,
                   **payload: Any) -> Optional[Dict[str, Any]]:
        """Record an already-measured operation as a closed span."""
        return self._record(kind, payload, at=self._wall(),
                            elapsed_s=self._clock() - self._t0,
                            duration_s=float(duration_s),
                            span=self._next_span_id(),
                            parent=self._current_span())

    def wrap_tools(self, tools: Mapping[str, Callable]
                   ) -> Mapping[str, Callable]:
        """Estimation tools pass through — their spans belong to the
        worker layer's own recorder, not the branch buffer."""
        return tools

    def next_session(self) -> int:
        return 0

    # -- Span protocol (shared with TraceRecorder) --------------------
    def _next_span_id(self) -> int:
        self._span_ids += 1
        return self._span_ids

    def _current_span(self) -> Optional[int]:
        return self._span_stack[-1] if self._span_stack else None

    def _enter_span(self, span_id: int) -> Optional[int]:
        parent = self._current_span()
        self._span_stack.append(span_id)
        return parent

    def _finish_span(self, span: "_BufferSpan") -> None:
        end = self._clock()
        if self._span_stack and self._span_stack[-1] == span.span_id:
            self._span_stack.pop()
        else:  # pragma: no cover - defensive against misuse
            try:
                self._span_stack.remove(span.span_id)
            except ValueError:
                pass
        self._record(span.kind, span.payload, at=span._at,
                     elapsed_s=span._start - self._t0,
                     duration_s=end - span._start,
                     span=span.span_id, parent=span._parent)

    # -- internals ----------------------------------------------------
    def _record(self, kind: str, payload: Dict[str, Any], *, at: float,
                elapsed_s: float, duration_s: Optional[float] = None,
                span: Optional[int] = None, parent: Optional[int] = None,
                ) -> Optional[Dict[str, Any]]:
        if len(self.records) >= self.limit:
            self.dropped += 1
            return None
        row: Dict[str, Any] = {
            "seq": self._seq,
            "kind": kind,
            "at": at,
            "elapsed_s": elapsed_s,
        }
        if duration_s is not None:
            row["duration_s"] = duration_s
        if span is not None:
            row["span"] = span
        if parent is not None:
            row["parent"] = parent
        if payload:
            row["payload"] = dict(payload)
        self._seq += 1
        self.records.append(row)
        return row

    def absorb_init(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Replay process-initializer records (startup hydration) into
        this buffer, nested under the current span."""
        for row in rows:
            self.emit_timed(str(row.get("kind", ev.WORKER_HYDRATE)),
                            float(row.get("duration_s", 0.0)),
                            **dict(row.get("payload") or {}))

    def drain(self) -> Tuple[List[Dict[str, Any]], int]:
        """The recorded plain-data events and the drop count."""
        return self.records, self.dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WorkerTraceBuffer {len(self.records)} events"
                f" dropped={self.dropped}>")


class _BufferSpan:
    """Span context manager over a :class:`WorkerTraceBuffer`.

    Mirrors :class:`repro.core.obs.recorder.Span` against the buffer's
    identical private protocol; kept separate so the buffer stays free
    of recorder imports and the record shape stays plain-data.
    """

    __slots__ = ("_buffer", "kind", "payload", "span_id", "_at",
                 "_start", "_parent")

    def __init__(self, buffer: WorkerTraceBuffer, kind: str,
                 payload: Dict[str, Any]):
        self._buffer = buffer
        self.kind = kind
        self.payload = payload
        self.span_id = buffer._next_span_id()
        self._at = 0.0
        self._start = 0.0
        self._parent: Optional[int] = None

    def __enter__(self) -> "_BufferSpan":
        buffer = self._buffer
        self._at = buffer._wall()
        self._start = buffer._clock()
        self._parent = buffer._enter_span(self.span_id)
        return self

    def note(self, **payload: Any) -> None:
        self.payload.update(payload)

    def __exit__(self, *exc: object) -> bool:
        self._buffer._finish_span(self)
        return False


# ----------------------------------------------------------------------
# canonical (byte-stable) trace form
# ----------------------------------------------------------------------
EventLike = Union[TraceEvent, Mapping[str, Any]]


def _event_row(event: EventLike) -> Dict[str, Any]:
    if isinstance(event, TraceEvent):
        return event.to_dict()
    return dict(event)


def canonical_trace_events(events: Iterable[EventLike]
                           ) -> List[Dict[str, Any]]:
    """The scheduling-independent projection of a trace.

    Drops timing fields (``at`` / ``elapsed_s`` / ``duration_s``),
    volatile payload keys (:data:`VOLATILE_PAYLOAD_KEYS`), and whole
    kinds that exist only because of scheduling
    (:data:`VOLATILE_KINDS`); renumbers ``seq`` densely and remaps
    span ids to their first-appearance order.  Two traces of the same
    exploration — any job count, any chunk size — project to the same
    list.
    """
    rows = sorted((_event_row(e) for e in events),
                  key=lambda r: int(r.get("seq", 0)))
    kept = [row for row in rows
            if str(row.get("kind", "?")) not in VOLATILE_KINDS]
    mapping: Dict[int, int] = {}
    for row in kept:
        for key in ("span", "parent"):
            sid = row.get(key)
            if sid is not None and sid not in mapping:
                mapping[sid] = len(mapping) + 1
    out: List[Dict[str, Any]] = []
    for index, row in enumerate(kept):
        item: Dict[str, Any] = {"seq": index,
                                "kind": str(row.get("kind", "?"))}
        if row.get("duration_s") is not None:
            item["timed"] = True
        if row.get("span") is not None:
            item["span"] = mapping[row["span"]]
        if row.get("parent") is not None:
            item["parent"] = mapping[row["parent"]]
        payload = {k: v for k, v in (row.get("payload") or {}).items()
                   if k not in VOLATILE_PAYLOAD_KEYS}
        if payload:
            item["payload"] = payload
        out.append(item)
    return out


def canonical_trace_bytes(events: Iterable[EventLike]) -> bytes:
    """Byte-stable serialization of :func:`canonical_trace_events`."""
    return json.dumps(canonical_trace_events(events), sort_keys=True,
                      separators=(",", ":"), default=repr).encode("utf-8")


def canonical_trace_digest(events: Iterable[EventLike]) -> str:
    """Short hex digest of the canonical byte form (for benchmarks)."""
    return hashlib.sha256(canonical_trace_bytes(events)).hexdigest()[:16]
