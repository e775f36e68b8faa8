"""Spans recorded from outside the program, for the traced run only.

:func:`install` wraps public functions of ``repro.core.index``,
``repro.core.session``, ``repro.core.explore`` and ``repro.serve`` so
each call records a span: name, start, end and parent (the span open on
the same thread when it started).  Spans stay in memory, one list per
thread, and are written out once at the end of the run.  Nothing under
``src/`` knows about this; an untraced run installs no wrapper.

Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans recorded in the server child can
be windowed against the client's timed phase.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: [name, start, end, parent position in the same list or -1].
Span = list

#: The layers, in the order the per-layer metrics list them.
LAYERS = ("index", "session", "explore", "serve")


class Tracer:
    """Per-thread in-memory span lists plus a few max-gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[List[Span]] = []
        self.gauges: Dict[str, float] = {}

    def _thread_spans(self) -> Tuple[List[Span], List[int]]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append(spans)
        return spans, local.stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        spans, stack = self._thread_spans()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner: object, attr: str,
             name: "str | Callable[[tuple], str]") -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a function of the call's positional arguments,
        for spans named after a verb.
        """
        original = vars(owner)[attr]
        naming = name if callable(name) else (lambda args: name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(naming(args), original, *args, **kwargs)

        setattr(owner, attr, traced)

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    def drain(self) -> List[List[tuple]]:
        """Every span list as plain tuples; the lists are emptied.  Call
        only while no span is open."""
        with self._lock:
            out = [[tuple(span) for span in spans] for spans in self._threads]
            for spans in self._threads:
                spans.clear()
        return [spans for spans in out if spans]

    def write(self, path: str, span_lists: Sequence[Sequence[tuple]]) -> None:
        """One JSON line of gauges, then one line per thread:
        ``{"thread": i, "spans": [[name, start, end, parent], ...]}``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"gauges": self.gauges}, out)
            out.write("\n")
            for thread, spans in enumerate(span_lists):
                json.dump({"thread": thread, "spans": spans}, out)
                out.write("\n")


def read_spans(path: str) -> Tuple[Dict[str, float], List[List[tuple]]]:
    """Inverse of :meth:`Tracer.write`."""
    with open(path, encoding="utf-8") as src:
        gauges = json.loads(src.readline())["gauges"]
        threads = [[tuple(span) for span in json.loads(line)["spans"]]
                   for line in src]
    return gauges, threads


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _verb_name(prefix: str) -> Callable[[tuple], str]:
    # handle(self, verb, params) / request(self, verb, params)
    return lambda args: prefix + str(args[1]).rsplit("/", 1)[-1]


def install(tracer: Tracer, serving: bool = False) -> None:
    """Wrap the layer entry points; ``serving`` adds the service's own."""
    from repro.core.explore.engine import SearchContext
    from repro.core.explore.outcome import ParetoFrontier
    from repro.core.index import CoreIndex
    from repro.core.session import ExplorationSession

    for attr in ("prune", "prune_ids", "requirement_ids", "decision_ids",
                 "merit_ranges_for"):
        tracer.wrap(CoreIndex, attr, f"index.{attr}")
    for attr in ("available_options", "decide", "prune_report"):
        tracer.wrap(ExplorationSession, attr, f"session.{attr}")
    tracer.wrap(SearchContext, "terminal", "explore.terminal")
    tracer.wrap(ParetoFrontier, "add", "explore.frontier_add")
    if serving:
        _install_service(tracer)


def _install_service(tracer: Tracer) -> None:
    from repro.serve.app import DesignSpaceService
    from repro.serve.batching import PruneBatcher
    from repro.serve.state import SessionManager

    tracer.wrap(DesignSpaceService, "handle", _verb_name("serve.handle."))
    tracer.wrap(DesignSpaceService, "handle_json",
                _verb_name("serve.handle_json."))
    tracer.wrap(PruneBatcher, "evaluate", "serve.batcher.evaluate")
    session_open = SessionManager.open

    @functools.wraps(session_open)
    def counting_open(self, *args, **kwargs):
        served = session_open(self, *args, **kwargs)
        tracer.gauge_max("serve.sessions.max_active", len(self))
        return served

    SessionManager.open = counting_open


def install_client(tracer: Tracer) -> None:
    from repro.serve.client import ServiceClient

    tracer.wrap(ServiceClient, "request", _verb_name("client."))


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class SpanTotals:
    """Calls, inclusive seconds and self seconds per span name, over the
    spans that started inside a time window."""

    def __init__(self, span_lists: Iterable[Sequence[tuple]],
                 window: Tuple[float, float]) -> None:
        low, high = window
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.self_seconds: Dict[str, float] = {}
        #: Per span name: seconds covered by its direct children.
        self.child_seconds: Dict[str, float] = {}
        for spans in span_lists:
            children = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    children[parent] += end - start
            for pos, (name, start, end, _) in enumerate(spans):
                if not low <= start <= high:
                    continue
                took = end - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.seconds[name] = self.seconds.get(name, 0.0) + took
                self.self_seconds[name] = (self.self_seconds.get(name, 0.0)
                                           + took - children[pos])
                self.child_seconds[name] = (self.child_seconds.get(name, 0.0)
                                            + children[pos])

    def ms(self, name: str) -> float:
        return self.seconds.get(name, 0.0) * 1e3

    def prefixed_ms(self, prefix: str) -> float:
        return sum(seconds for name, seconds in self.seconds.items()
                   if name.startswith(prefix)) * 1e3

    def layer_self_ms(self, layer: str) -> float:
        return sum(seconds for name, seconds in self.self_seconds.items()
                   if name.startswith(layer + ".")) * 1e3

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(totals: SpanTotals, walks: int,
                      extra: Optional[Dict[str, float]] = None
                      ) -> Dict[str, float]:
    """The span-derived per-layer metrics, per walk.  Metrics of a layer
    the workload never crosses read 0."""
    n = max(walks, 1)
    verbs = ("open", "require", "decide", "options", "report", "close")
    handle_ms = totals.prefixed_ms("serve.handle.")
    handle_json_ms = totals.prefixed_ms("serve.handle_json.")
    client_ms = totals.prefixed_ms("client.")
    metrics = {
        "index.prune_ids.calls": totals.count("index.prune_ids") / n,
        "index.prune_ids.ms": totals.ms("index.prune_ids") / n,
        "index.requirement_ids.calls":
            totals.count("index.requirement_ids") / n,
        "index.requirement_ids.ms": totals.ms("index.requirement_ids") / n,
        "index.decision_ids.ms": totals.ms("index.decision_ids") / n,
        "index.merit_ranges_for.ms": totals.ms("index.merit_ranges_for") / n,
        "session.available_options.ms":
            totals.ms("session.available_options") / n,
        "session.decide.ms": totals.ms("session.decide") / n,
        "session.prune_report.calls":
            totals.count("session.prune_report") / n,
        "session.prune_memo.hit_ratio": (
            1.0 - ratio(totals.count("index.prune"),
                        totals.count("session.prune_report"))
            if totals.count("session.prune_report") else 0.0),
        "explore.terminal.ms": totals.ms("explore.terminal") / n,
        "explore.frontier_add.calls":
            totals.count("explore.frontier_add") / n,
        "explore.frontier_add.ms": totals.ms("explore.frontier_add") / n,
    }
    for verb in verbs:
        metrics[f"serve.handle.{verb}.ms"] = \
            totals.ms(f"serve.handle.{verb}") / n
    metrics["serve.codec.ms"] = (handle_json_ms - handle_ms) / n \
        if handle_json_ms else 0.0
    metrics["serve.http.overhead_ms"] = (client_ms - handle_json_ms) / n \
        if client_ms else 0.0
    metrics["serve.batcher.evaluate.ms"] = \
        totals.ms("serve.batcher.evaluate") / n
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = totals.layer_self_ms(layer) / n
    if extra:
        metrics.update(extra)
    return metrics
