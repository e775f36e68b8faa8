"""Trace exporters: JSONL files, summaries, and a session timeline.

Three views of the same event stream:

* :func:`write_jsonl` / :func:`read_jsonl` — the durable interchange
  format (one JSON object per line) consumed by ``repro trace`` and
  :mod:`repro.core.obs.replay`;
* :func:`summarize` — aggregate counts and span-time totals per kind;
* :func:`render_timeline` — a human-readable, indentation-nested
  rendering of the exploration in start-time order.

The Prometheus text dump lives on
:meth:`~repro.core.obs.metrics.MetricsRegistry.render_prometheus`.
"""

from __future__ import annotations

import io
import json
import os
from typing import IO, Dict, List, Sequence, Union

from repro.core.obs.events import TraceEvent
from repro.errors import ObservabilityError

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]


def _open_maybe(target: PathOrFile, mode: str):
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, encoding="utf-8"), True
    return target, False


def write_jsonl(events: Sequence[TraceEvent], target: PathOrFile) -> int:
    """Write events as JSON-lines; returns the number written.

    Non-JSON payload values degrade to their ``repr`` (the trace stays
    readable, but such steps cannot be replayed value-exactly).
    """
    fp, owned = _open_maybe(target, "w")
    try:
        for event in events:
            fp.write(json.dumps(event.to_dict(), sort_keys=True,
                                default=repr))
            fp.write("\n")
    finally:
        if owned:
            fp.close()
    return len(events)


def read_jsonl(source: PathOrFile) -> List[TraceEvent]:
    """Read a JSONL trace back into events (seq order preserved)."""
    fp, owned = _open_maybe(source, "r")
    try:
        out: List[TraceEvent] = []
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                out.append(TraceEvent.from_dict(data))
            except (ValueError, KeyError, TypeError) as exc:
                raise ObservabilityError(
                    f"trace line {lineno} is not a valid event: {exc}"
                ) from exc
        return out
    finally:
        if owned:
            fp.close()


def dumps_jsonl(events: Sequence[TraceEvent]) -> str:
    """The JSONL text for ``events`` (convenience for tests/shell)."""
    buffer = io.StringIO()
    write_jsonl(events, buffer)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def summarize_dict(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """Aggregates as plain data (the ``repro trace --json`` payload)."""
    counts: Dict[str, int] = {}
    span_time: Dict[str, float] = {}
    span_count: Dict[str, int] = {}
    sessions = set()
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if event.duration_s is not None:
            span_time[event.kind] = span_time.get(event.kind, 0.0) \
                + event.duration_s
            span_count[event.kind] = span_count.get(event.kind, 0) + 1
        sid = event.payload.get("session")
        if sid is not None:
            sessions.add(sid)
    wall_ms = 0.0
    if events:
        first = min(event.elapsed_s for event in events)
        last = max(event.elapsed_s + (event.duration_s or 0.0)
                   for event in events)
        wall_ms = (last - first) * 1e3
    spans = {kind: {"count": span_count[kind],
                    "total_ms": span_time[kind] * 1e3,
                    "mean_ms": span_time[kind] / span_count[kind] * 1e3}
             for kind in span_time}
    return {
        "events": len(events),
        "sessions": len(sessions),
        "wall_ms": wall_ms,
        "by_kind": dict(sorted(counts.items())),
        "spans": spans,
    }


def summarize(events: Sequence[TraceEvent]) -> str:
    """Aggregate view: events per kind, span time per kind."""
    if not events:
        return "(empty trace)"
    data = summarize_dict(events)
    lines = [f"trace: {data['events']} events, "
             f"{data['sessions']} session(s), "
             f"{data['wall_ms']:.3f} ms wall"]
    lines.append("  events by kind:")
    spans = data["spans"]
    for kind, count in data["by_kind"].items():
        line = f"    {kind:<18} {count:>6}"
        if kind in spans:
            line += (f"   total {spans[kind]['total_ms']:.3f} ms"
                     f"   mean {spans[kind]['mean_ms']:.3f} ms")
        lines.append(line)
    return "\n".join(lines)


def render_timeline(events: Sequence[TraceEvent]) -> str:
    """The session timeline: events in start order, spans indented.

    Span events are emitted when they *close*, so the raw stream orders
    children before parents; the timeline re-orders by start time and
    nests on the recorded parent ids.
    """
    if not events:
        return "(empty trace)"
    depth: Dict[int, int] = {}

    def depth_of(event: TraceEvent) -> int:
        if event.parent is None:
            return 0
        return depth.get(event.parent, 0) + 1

    ordered = sorted(events, key=lambda e: (e.elapsed_s, e.seq))
    for event in ordered:
        if event.span is not None:
            depth[event.span] = depth_of(event)
    lines = []
    for event in ordered:
        indent = "  " * depth_of(event)
        lines.append(f"[{event.elapsed_s * 1e3:10.3f} ms] "
                     f"{indent}{event.describe()}")
    return "\n".join(lines)
