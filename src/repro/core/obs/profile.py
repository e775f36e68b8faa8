"""Span profiler: where did a traced run spend its time?

Aggregates any trace into self/cumulative time per *span site* (an
event kind refined by its discriminating payload field: ``prune``,
``constraint_fired[cc_area]``, ``branch_open[Family]``, ...).  Two
renderings:

* a **top-N table** of sites ordered by self time (time spent in the
  span itself, children subtracted) — the "what is hot" view;
* an indentation-nested **flame tree** that merges sibling spans with
  the same site, so a long walk collapses into one line per branch
  shape instead of one line per event — the "where does the time nest"
  view.  Both have text and JSON forms.

Self time is computed structurally (parent minus direct children), not
from timestamps, so a trace read back from JSONL profiles the same as
the live one.

Surfaces: :func:`profile_events` here, ``repro profile <trace.jsonl>``
on the CLI, and the shell's ``profile`` command.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.core.obs.events import TraceEvent

EventLike = Union[TraceEvent, Mapping[str, Any]]

#: Payload keys that refine an event kind into a profiling site, tried
#: in order (``prune`` stays ``prune``; ``constraint_fired`` becomes
#: ``constraint_fired[cc_area]``).
SITE_KEYS = ("constraint", "tool", "issue", "branch", "owner", "rule",
             "source", "name")


def _row(event: EventLike) -> Dict[str, Any]:
    if isinstance(event, TraceEvent):
        return event.to_dict()
    return dict(event)


def event_site(row: Mapping[str, Any]) -> str:
    """The profiling site label of one event row."""
    kind = str(row.get("kind", "?"))
    payload = row.get("payload") or {}
    for key in SITE_KEYS:
        if key in payload:
            return f"{kind}[{payload[key]}]"
    return kind


@dataclass
class SiteStats:
    """Aggregated timing of one site across a whole trace."""

    site: str
    kind: str
    count: int = 0
    #: Summed span durations (an instant event contributes 0).
    cum_s: float = 0.0
    #: Summed durations minus direct children — the time the site itself
    #: burned.
    self_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "count": self.count,
            "cum_ms": round(self.cum_s * 1e3, 3),
            "self_ms": round(self.self_s * 1e3, 3),
        }


class SpanProfile:
    """The aggregated profile of one trace (see :func:`profile_events`)."""

    def __init__(self, sites: List[SiteStats], flame: List[Dict[str, Any]],
                 events: int, spans: int, total_s: float):
        #: Per-site aggregates, ordered by self time descending.
        self.sites = sites
        #: Nested flame tree (site-merged; JSON-ready).
        self.flame = flame
        self.events = events
        self.spans = spans
        #: Summed root-span time — the profiled wall time.
        self.total_s = total_s

    # -- renderings ---------------------------------------------------
    def render_table(self, top: int = 20) -> str:
        """Top-N sites by self time, fixed-width text."""
        lines = [f"span profile: {self.events} events, {self.spans} spans,"
                 f" {self.total_s * 1e3:.3f} ms total",
                 f"{'site':<44} {'count':>6} {'cum ms':>10} {'self ms':>10}"]
        for stats in self.sites[:max(top, 0)]:
            lines.append(f"{stats.site[:44]:<44} {stats.count:>6} "
                         f"{stats.cum_s * 1e3:>10.3f} "
                         f"{stats.self_s * 1e3:>10.3f}")
        if len(self.sites) > top > 0:
            lines.append(f"... {len(self.sites) - top} more site(s)")
        return "\n".join(lines)

    def render_flame(self, max_depth: Optional[int] = None) -> str:
        """The indentation-nested flame tree as text."""
        lines: List[str] = []
        self._render_nodes(self.flame, 0, max_depth, lines)
        return "\n".join(lines) if lines else "(empty trace)"

    def _render_nodes(self, nodes: List[Dict[str, Any]], depth: int,
                      max_depth: Optional[int], lines: List[str]) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        for node in nodes:
            indent = "  " * depth
            bits = [f"{indent}{node['site']}"]
            if node.get("cum_ms"):
                bits.append(f"{node['cum_ms']:.3f} ms")
                if node.get("self_ms") != node.get("cum_ms"):
                    bits.append(f"(self {node['self_ms']:.3f} ms)")
            if node.get("count", 1) != 1:
                bits.append(f"x{node['count']}")
            lines.append("  ".join(bits))
            self._render_nodes(node.get("children", []), depth + 1,
                               max_depth, lines)

    def to_dict(self, top: int = 0) -> Dict[str, Any]:
        """JSON form: summary + per-site table + nested flame tree."""
        sites = self.sites if top <= 0 else self.sites[:top]
        return {
            "events": self.events,
            "spans": self.spans,
            "total_ms": round(self.total_s * 1e3, 3),
            "sites": [stats.to_dict() for stats in sites],
            "flame": self.flame,
        }

    def site(self, label: str) -> Optional[SiteStats]:
        """Lookup one site's aggregate by exact label."""
        for stats in self.sites:
            if stats.site == label:
                return stats
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SpanProfile {self.events} events "
                f"{len(self.sites)} sites {self.total_s * 1e3:.3f} ms>")


def profile_events(events: Iterable[EventLike]) -> SpanProfile:
    """Aggregate a trace into a :class:`SpanProfile`.

    Accepts :class:`~repro.core.obs.events.TraceEvent` objects or the
    plain dicts of a JSONL trace file.  Events nest by span ``parent``
    ids; timeline order is ``(elapsed_s, seq)`` exactly as in the
    timeline exporter.
    """
    rows = sorted((_row(e) for e in events),
                  key=lambda r: (float(r.get("elapsed_s", 0.0)),
                                 int(r.get("seq", 0))))
    span_ids = {row["span"] for row in rows if row.get("span") is not None}
    children: Dict[Any, List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for row in rows:
        parent = row.get("parent")
        if parent is not None and parent in span_ids:
            children.setdefault(parent, []).append(row)
        else:
            roots.append(row)

    def duration(row: Mapping[str, Any]) -> float:
        value = row.get("duration_s")
        return float(value) if value is not None else 0.0

    def self_time(row: Mapping[str, Any]) -> float:
        if row.get("duration_s") is None:
            return 0.0
        nested = sum(duration(child)
                     for child in children.get(row.get("span"), []))
        return max(duration(row) - nested, 0.0)

    # per-site aggregation over every event
    by_site: "OrderedDict[str, SiteStats]" = OrderedDict()
    spans = 0
    for row in rows:
        if row.get("duration_s") is not None:
            spans += 1
        label = event_site(row)
        stats = by_site.get(label)
        if stats is None:
            stats = SiteStats(site=label, kind=str(row.get("kind", "?")))
            by_site[label] = stats
        stats.count += 1
        stats.cum_s += duration(row)
        stats.self_s += self_time(row)
    sites = sorted(by_site.values(),
                   key=lambda s: (-s.self_s, -s.cum_s, s.site))

    def flame_nodes(level: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        groups: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()
        for row in level:
            groups.setdefault(event_site(row), []).append(row)
        nodes: List[Dict[str, Any]] = []
        for label, members in groups.items():
            nested: List[Dict[str, Any]] = []
            for member in members:
                if member.get("span") is not None:
                    nested.extend(children.get(member["span"], []))
            node: Dict[str, Any] = {
                "site": label,
                "kind": str(members[0].get("kind", "?")),
                "count": len(members),
                "cum_ms": round(sum(duration(m) for m in members) * 1e3, 3),
                "self_ms": round(sum(self_time(m) for m in members) * 1e3,
                                 3),
            }
            kids = flame_nodes(nested) if nested else []
            if kids:
                node["children"] = kids
            nodes.append(node)
        return nodes

    total_s = sum(duration(row) for row in roots)
    return SpanProfile(sites=sites, flame=flame_nodes(roots),
                       events=len(rows), spans=spans, total_s=total_s)
