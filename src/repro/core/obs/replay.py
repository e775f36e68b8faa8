"""Replaying recorded traces against a design space layer.

A trace records the designer's exploration *path* — requirement entries,
decisions, retractions, undos, checkpoint hops — plus the surviving-core
digests the layer produced at every actual pruning pass.  Replay
re-executes the path on a (freshly built) layer and verifies that the
reproduced exploration yields the **identical surviving-core sets and
figure-of-merit ranges** at every recorded pruning step.

This is the paper's "revisit the exploration" workflow made executable:
a designer (or a regression harness) can hand a JSONL trace to
``repro trace --replay`` and learn whether the layer still answers the
recorded session the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.obs import events as ev
from repro.core.obs.events import TraceEvent
from repro.core.pruning import MissingPolicy, names_digest
from repro.errors import ReplayError, ReproError


@dataclass
class ReplayStep:
    """One replayed mutation or verified pruning checkpoint."""

    seq: int
    kind: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        marker = "ok " if self.ok else "DIVERGED"
        return f"  [{marker}] #{self.seq} {self.kind}: {self.detail}"


@dataclass
class ReplayReport:
    """Outcome of replaying one recorded session."""

    session: int
    steps: List[ReplayStep] = field(default_factory=list)
    #: Final surviving-core names after the whole path was re-applied.
    final_survivors: List[str] = field(default_factory=list)

    @property
    def mutations(self) -> int:
        return sum(1 for s in self.steps if s.kind in ev.MUTATION_KINDS)

    @property
    def checks(self) -> int:
        return sum(1 for s in self.steps if s.kind == ev.PRUNE)

    @property
    def mismatches(self) -> List[ReplayStep]:
        return [s for s in self.steps if not s.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render_text(self) -> str:
        verdict = "replay OK" if self.ok else \
            f"replay DIVERGED ({len(self.mismatches)} mismatches)"
        lines = [f"{verdict}: session {self.session}, "
                 f"{self.mutations} mutations re-applied, "
                 f"{self.checks} pruning checkpoints verified, "
                 f"{len(self.final_survivors)} final survivors"]
        for step in self.steps:
            if not step.ok:
                lines.append(step.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "session": self.session,
            "ok": self.ok,
            "mutations": self.mutations,
            "checks": self.checks,
            "final_survivors": list(self.final_survivors),
            "mismatches": [{"seq": s.seq, "kind": s.kind,
                            "detail": s.detail}
                           for s in self.mismatches],
        }


def _normalize_ranges(ranges: object) -> Dict[str, Tuple[float, float]]:
    out: Dict[str, Tuple[float, float]] = {}
    if isinstance(ranges, dict):
        for metric, bounds in ranges.items():
            lo, hi = bounds  # type: ignore[misc]
            out[str(metric)] = (float(lo), float(hi))
    return out


def session_ids(events: Sequence[TraceEvent]) -> List[int]:
    """Ids of the sessions that announced themselves in the trace."""
    return [int(e.payload["session"]) for e in events
            if e.kind == ev.SESSION_OPEN]


def replay_trace(layer, events: Sequence[TraceEvent],
                 session: Optional[int] = None) -> ReplayReport:
    """Re-apply a recorded session against ``layer`` and verify it.

    ``layer`` must be (equivalent to) the layer the trace was recorded
    on — typically rebuilt by the same domain builder.  ``session``
    selects one of several recorded sessions; the default is the first
    ``session_open`` in the trace.

    Returns a :class:`ReplayReport`; divergence is reported per step,
    never raised (a trace that cannot be *parsed* raises
    :class:`~repro.errors.ReplayError`).
    """
    from repro.core.session import ExplorationSession

    opens = [e for e in events if e.kind == ev.SESSION_OPEN]
    if not opens:
        raise ReplayError("trace has no session_open event; "
                          "was tracing enabled before the session ran?")
    if session is None:
        opened = opens[0]
    else:
        matching = [e for e in opens
                    if int(e.payload["session"]) == session]
        if not matching:
            raise ReplayError(
                f"no session {session} in trace "
                f"(recorded: {session_ids(events)})")
        opened = matching[0]
    sid = int(opened.payload["session"])
    payload = opened.payload

    try:
        live = ExplorationSession(
            layer, str(payload["cdo"]),
            merit_metrics=tuple(payload.get("metrics", ())),
            missing_policy=MissingPolicy(
                payload.get("missing_policy", "exclude")))
    except ReproError as exc:
        raise ReplayError(f"cannot open session at "
                          f"{payload.get('cdo')!r}: {exc}") from exc

    report = ReplayReport(session=sid)

    def attempt(step_seq: int, kind: str, detail: str, action) -> None:
        try:
            action()
            report.steps.append(ReplayStep(step_seq, kind, True, detail))
        except ReproError as exc:
            report.steps.append(ReplayStep(
                step_seq, kind, False, f"{detail} raised: {exc}"))

    # State accumulated before tracing was switched on (mid-session
    # enablement) is replayed first, in recorded insertion order.
    for name, value in dict(payload.get("requirements", {})).items():
        attempt(opened.seq, ev.REQUIRE, f"(priming) {name}={value!r}",
                lambda n=name, v=value: live.set_requirement(n, v))
    for name, option in dict(payload.get("decisions", {})).items():
        attempt(opened.seq, ev.DECIDE, f"(priming) {name}={option!r}",
                lambda n=name, o=option: live.decide(n, o))

    for event in sorted(events, key=lambda e: e.seq):
        if event.seq <= opened.seq:
            continue
        if event.payload.get("session") != sid:
            continue
        kind = event.kind
        payload = event.payload
        if kind == ev.REQUIRE:
            attempt(event.seq, kind,
                    f"{payload['name']}={payload['value']!r}",
                    lambda: live.set_requirement(payload["name"],
                                                 payload["value"]))
        elif kind == ev.DECIDE:
            attempt(event.seq, kind,
                    f"{payload['issue']}={payload['option']!r}",
                    lambda: live.decide(payload["issue"],
                                        payload["option"]))
        elif kind == ev.RETRACT:
            attempt(event.seq, kind, str(payload["name"]),
                    lambda: live.retract(payload["name"]))
        elif kind == ev.UNDO:
            attempt(event.seq, kind, "undo", live.undo)
        elif kind == ev.CHECKPOINT:
            attempt(event.seq, kind, str(payload["tag"]),
                    lambda: live.checkpoint(payload["tag"]))
        elif kind == ev.RESTORE:
            attempt(event.seq, kind, str(payload["tag"]),
                    lambda: live.restore(payload["tag"]))
        elif kind == ev.ACKNOWLEDGE:
            attempt(event.seq, kind, str(payload["name"]),
                    lambda: live.acknowledge(payload["name"]))
        elif kind == ev.PRUNE:
            report.steps.append(_check_prune(live, event))
    try:
        report.final_survivors = [c.name for c in live.candidates()]
    except ReproError as exc:  # pragma: no cover - defensive
        report.steps.append(ReplayStep(-1, ev.PRUNE, False,
                                       f"final candidates raised: {exc}"))
    return report


def _check_prune(live, event: TraceEvent) -> ReplayStep:
    """Verify one recorded pruning checkpoint against the live session."""
    payload = event.payload
    try:
        live_report = live.prune_report()
    except ReproError as exc:
        return ReplayStep(event.seq, event.kind, False,
                          f"prune raised: {exc}")
    problems: List[str] = []
    live_count = len(live_report.survivor_ids)
    expected_count = payload.get("survivors")
    if expected_count is not None and expected_count != live_count:
        problems.append(f"survivors {live_count} "
                        f"!= recorded {expected_count}")
    expected_digest = payload.get("digest")
    if expected_digest is not None:
        live_digest = names_digest(live_report.survivor_names)
        if live_digest != expected_digest:
            problems.append(f"survivor digest {live_digest} "
                            f"!= recorded {expected_digest}")
    if "ranges" in payload:
        from repro.core.pruning import merit_ranges
        live_ranges = _normalize_ranges(merit_ranges(
            live_report.survivors, live.merit_metrics))
        expected_ranges = _normalize_ranges(payload["ranges"])
        if live_ranges != expected_ranges:
            problems.append(f"merit ranges {live_ranges} "
                            f"!= recorded {expected_ranges}")
    if problems:
        return ReplayStep(event.seq, event.kind, False, "; ".join(problems))
    return ReplayStep(event.seq, event.kind, True,
                      f"{live_count} survivors verified")
