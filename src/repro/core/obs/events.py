"""Typed trace events — the vocabulary of the observability layer.

A trace is an append-only stream of :class:`TraceEvent` records.  Each
event is one *observation* of the design space layer at work: a designer
action (``session_open``, ``require``, ``decide``, ``retract``, ...), a
machine reaction (``constraint_fired``, ``prune``, ``cache_hit``,
``index_rebuild``, ``estimate_invoked``), or a tool run (``lint_run``).

Events are flat and JSON-serializable by construction so they can be
written to JSONL files and replayed later (:mod:`repro.core.obs.replay`).
Timed operations are recorded as **spans**: a span is still a single
event, carrying ``duration_s`` and — when spans nest — the ``parent``
span id, so exporters can reconstruct the call tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

# ----------------------------------------------------------------------
# event kinds
# ----------------------------------------------------------------------
#: A new :class:`~repro.core.session.ExplorationSession` announced itself
#: (payload carries the position, metrics, and any state accumulated
#: before tracing was switched on, so traces are replayable mid-session).
SESSION_OPEN = "session_open"
#: Designer entered a requirement value.
REQUIRE = "require"
#: Designer committed a design decision.
DECIDE = "decide"
#: Designer withdrew a decision or requirement.
RETRACT = "retract"
#: Linear undo of the last mutation.
UNDO = "undo"
#: Named checkpoint saved / restored (branched what-ifs).
CHECKPOINT = "checkpoint"
RESTORE = "restore"
#: Designer confirmed a stale dependent is still valid.
ACKNOWLEDGE = "acknowledge"
#: One consistency constraint was evaluated (span).
CONSTRAINT_FIRED = "constraint_fired"
#: One actual pruning pass over the core index (span).
PRUNE = "prune"
#: Session prune memo hit / miss.
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
#: An early estimation tool ran inside a CC relation (span).
ESTIMATE_INVOKED = "estimate_invoked"
#: A library / federation core index was (re)built (span).
INDEX_REBUILD = "index_rebuild"
#: The static-analysis rules ran over a layer (span).
LINT_RUN = "lint_run"
#: An automated exploration run started (payload: strategy, start, metrics).
EXPLORE_START = "explore_start"
#: The engine opened one decision branch for evaluation.
BRANCH_OPEN = "branch_open"
#: The engine discarded a branch without descending (payload: reason).
BRANCH_PRUNED = "branch_pruned"
#: The Pareto frontier absorbed a new non-dominated outcome.
FRONTIER_UPDATE = "frontier_update"
#: Worker(s) hydrated / built a layer for parallel evaluation (payload:
#: count, seconds, source = ``snapshot`` | ``factory``).
WORKER_HYDRATE = "worker_hydrate"
#: One chunked parallel dispatch completed (payload: tasks, chunks,
#: chunk_size, workers, utilization).
CHUNK_DISPATCH = "chunk_dispatch"
#: Idle workers stole pending chunks from slower peers (payload: count).
CHUNK_STEAL = "chunk_steal"
#: One sampled branch evaluation inside a pool worker (span; payload:
#: branch label, task index, worker id, buffered event / drop counts).
#: Emitted into a :class:`~repro.core.obs.context.WorkerTraceBuffer`
#: and merged into the parent trace under its ``branch_open`` anchor.
WORKER_TASK = "worker_task"
#: The semantic verifier ran over a layer (span).
VERIFY_RUN = "verify_run"
#: The verifier proved a design-issue option dead (payload: cdo, issue,
#: option, proof_kind, constraint).
DEAD_BRANCH_PROVED = "dead_branch_proved"
#: The verifier extracted a minimal unsat core for an infeasible
#: requirement set (payload: region, requirements, constraints).
UNSAT_CORE_FOUND = "unsat_core_found"

EVENT_KINDS = frozenset({
    SESSION_OPEN, REQUIRE, DECIDE, RETRACT, UNDO, CHECKPOINT, RESTORE,
    ACKNOWLEDGE, CONSTRAINT_FIRED, PRUNE, CACHE_HIT, CACHE_MISS,
    ESTIMATE_INVOKED, INDEX_REBUILD, LINT_RUN,
    EXPLORE_START, BRANCH_OPEN, BRANCH_PRUNED, FRONTIER_UPDATE,
    WORKER_HYDRATE, CHUNK_DISPATCH, CHUNK_STEAL,
    WORKER_TASK, VERIFY_RUN, DEAD_BRANCH_PROVED, UNSAT_CORE_FOUND,
})

#: Kinds that mutate session state; a replay re-applies exactly these,
#: in recorded order.
MUTATION_KINDS = (REQUIRE, DECIDE, RETRACT, UNDO, CHECKPOINT, RESTORE,
                  ACKNOWLEDGE)


@dataclass(frozen=True)
class TraceEvent:
    """One observation in the trace stream.

    ``seq`` orders events by *emission*; a span's event is emitted when
    the span closes, so children may precede their parent in ``seq`` —
    order by ``elapsed_s`` (start time) to reconstruct the timeline.
    """

    seq: int
    kind: str
    #: Wall-clock timestamp (``time.time``) of the event / span start.
    at: float
    #: Monotonic offset from the recorder's creation, in seconds.
    elapsed_s: float
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Wall time of the operation; only spans carry one.
    duration_s: Optional[float] = None
    #: This event's own span id (spans only).
    span: Optional[int] = None
    #: Enclosing span id, when the event happened inside another span.
    parent: Optional[int] = None

    @property
    def is_span(self) -> bool:
        return self.duration_s is not None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "at": self.at,
            "elapsed_s": self.elapsed_s,
        }
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.span is not None:
            out["span"] = self.span
        if self.parent is not None:
            out["parent"] = self.parent
        if self.payload:
            out["payload"] = dict(self.payload)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            at=float(data["at"]),
            elapsed_s=float(data["elapsed_s"]),
            payload=dict(data.get("payload", {})),
            duration_s=(float(data["duration_s"])
                        if "duration_s" in data else None),
            span=(int(data["span"]) if "span" in data else None),
            parent=(int(data["parent"]) if "parent" in data else None),
        )

    def describe(self) -> str:
        """Compact one-line rendering (used by the timeline exporter)."""
        bits = [self.kind]
        for key, value in self.payload.items():
            if key == "session":
                continue
            if isinstance(value, dict):
                value = "{" + ",".join(f"{k}={v}" for k, v in value.items()) + "}"
            elif isinstance(value, list):
                value = "[" + ",".join(str(v) for v in value) + "]"
            bits.append(f"{key}={value}")
        if self.duration_s is not None:
            bits.append(f"({self.duration_s * 1e3:.3f} ms)")
        return " ".join(bits)
