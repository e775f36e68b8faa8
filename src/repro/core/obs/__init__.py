"""Observability for the design space layer.

``repro.core.obs`` is the instrumentation subsystem: a structured trace
of exploration events (:mod:`~repro.core.obs.events`), a metrics
registry (:mod:`~repro.core.obs.metrics`), the recorders hot paths talk
to (:mod:`~repro.core.obs.recorder`), a span profiler
(:mod:`~repro.core.obs.profile`), exporters
(:mod:`~repro.core.obs.export`) and trace replay
(:mod:`~repro.core.obs.replay`).

Replay is intentionally *not* imported here: it needs
:class:`~repro.core.session.ExplorationSession`, which would make this
package circular with :mod:`repro.core.layer` (the layer imports the
recorder).  Import it as ``from repro.core.obs import replay`` — by the
time user code does that, the core modules are fully initialised.
"""

from repro.core.obs.events import (
    ACKNOWLEDGE,
    CHECKPOINT,
    CONSTRAINT_FIRED,
    DECIDE,
    ESTIMATE_INVOKED,
    EVENT_KINDS,
    INDEX_REBUILD,
    LINT_RUN,
    MUTATION_KINDS,
    PRUNE,
    REQUIRE,
    RESTORE,
    RETRACT,
    SESSION_OPEN,
    UNDO,
    TraceEvent,
)
from repro.core.obs.export import (
    dumps_jsonl,
    read_jsonl,
    render_timeline,
    summarize,
    summarize_dict,
    write_jsonl,
)
from repro.core.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.core.obs.profile import (
    SiteStats,
    SpanProfile,
    profile_events,
)
from repro.core.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    TraceRecorder,
)

__all__ = [
    "ACKNOWLEDGE",
    "CHECKPOINT",
    "CONSTRAINT_FIRED",
    "DECIDE",
    "DEFAULT_BUCKETS",
    "ESTIMATE_INVOKED",
    "EVENT_KINDS",
    "INDEX_REBUILD",
    "LINT_RUN",
    "MUTATION_KINDS",
    "NULL_RECORDER",
    "PRUNE",
    "REQUIRE",
    "RESTORE",
    "RETRACT",
    "SESSION_OPEN",
    "UNDO",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "SiteStats",
    "Span",
    "SpanProfile",
    "TraceEvent",
    "TraceRecorder",
    "dumps_jsonl",
    "profile_events",
    "read_jsonl",
    "render_timeline",
    "summarize",
    "summarize_dict",
    "write_jsonl",
]
