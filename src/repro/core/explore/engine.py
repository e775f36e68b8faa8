"""The exploration engine: automated search over a design space layer.

The engine turns an :class:`~repro.core.explore.problem.ExplorationProblem`
into a driven :class:`~repro.core.session.ExplorationSession` walk.  A
:class:`SearchContext` mediates between strategy and session — opening
branches, deciding/undoing, collecting terminal outcomes into a
:class:`~repro.core.explore.outcome.ParetoFrontier`, and emitting obs
trace events (``explore_start``, ``branch_open``, ``branch_pruned``,
``frontier_update``) along the way.

With ``jobs > 1`` the engine fans the root issue's branches out to a
:class:`~repro.core.explore.parallel.WorkerPool` of processes; each
worker searches its branch on its own session and the results are
merged in dispatch order, so the frontier is deterministic and
independent of worker scheduling.  Strategies whose ``parallel_mode`` is
``"islands"`` (the evolutionary one) parallelize as ``jobs`` independent
populations seeded ``seed .. seed+jobs-1`` instead.  Lend a pool to
reuse warmed workers and their hydrated layers across runs; otherwise
each parallel run starts a pool of its own and closes it afterwards.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.explore.outcome import (
    ESTIMATED,
    Outcome,
    ParetoFrontier,
    render_path,
)
from repro.core.explore.problem import ExplorationProblem
from repro.core.explore.strategies import (
    SearchStrategy,
    make_strategy,
)
from repro.core.index import IndexedPruneReport
from repro.core.layer import DesignSpaceLayer
from repro.core.obs import events as _ev
from repro.core.obs.context import TraceContext
from repro.core.obs.events import TraceEvent
from repro.core.properties import DesignIssue
from repro.core.session import ExplorationSession, OptionInfo
from repro.errors import (
    ConstraintViolation,
    ExplorationError,
    PropertyError,
    SessionError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.explore.parallel import WorkerPool

#: Checkpoint tag marking the context's root position (problem prefix
#: applied, nothing decided by the strategy yet).
ROOT_TAG = "__explore_root__"


@dataclass
class ExplorationStats:
    """Work accounting for one search (mergeable across workers)."""

    #: Branches considered (one per issue option looked at).
    opened: int = 0
    #: Branches cut without descending, by reason
    #: (``eliminated`` / ``empty`` / ``constraint`` / ``bound`` /
    #: ``beam`` / ``proved-dead``).
    pruned: Dict[str, int] = field(default_factory=dict)
    #: Successful decide() descents.
    expanded: int = 0
    #: Terminal positions reached.
    terminals: int = 0
    #: Outcomes offered to the frontier (before dominance filtering).
    outcomes: int = 0
    #: Estimator / genome evaluations.
    evaluations: int = 0

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned.values())

    def prune(self, reason: str) -> None:
        self.pruned[reason] = self.pruned.get(reason, 0) + 1

    def merge(self, other: "ExplorationStats") -> None:
        self.opened += other.opened
        for reason, count in other.pruned.items():
            self.pruned[reason] = self.pruned.get(reason, 0) + count
        self.expanded += other.expanded
        self.terminals += other.terminals
        self.outcomes += other.outcomes
        self.evaluations += other.evaluations

    def to_dict(self) -> Dict[str, object]:
        return {
            "opened": self.opened,
            "pruned": dict(sorted(self.pruned.items())),
            "expanded": self.expanded,
            "terminals": self.terminals,
            "outcomes": self.outcomes,
            "evaluations": self.evaluations,
        }

    def describe(self) -> str:
        pruned = ", ".join(f"{reason}={count}" for reason, count
                           in sorted(self.pruned.items())) or "none"
        return (f"opened={self.opened} expanded={self.expanded} "
                f"pruned[{pruned}] terminals={self.terminals} "
                f"outcomes={self.outcomes} evaluations={self.evaluations}")


class SearchContext:
    """What a strategy sees: one session plus frontier, stats and trace.

    The context checkpoints its root position; :meth:`goto` restores it
    and replays a decision path, so restart-style strategies (beam,
    evolutionary) and recursive ones (exhaustive, branch-and-bound)
    share the same facade.
    """

    def __init__(self, problem: ExplorationProblem,
                 session: ExplorationSession,
                 frontier: Optional[ParetoFrontier] = None,
                 stats: Optional[ExplorationStats] = None,
                 recorder: Optional[object] = None):
        self.problem = problem
        self.session = session
        self.metrics: Tuple[str, ...] = tuple(problem.metrics)
        self.frontier = frontier if frontier is not None \
            else ParetoFrontier(self.metrics)
        self.stats = stats if stats is not None else ExplorationStats()
        #: Recorder override for strategy events.  Pool workers pass a
        #: :class:`~repro.core.obs.context.WorkerTraceBuffer` here: the
        #: worker's hydrated layer is untraced (and shared/sealed), but
        #: the branch's own search events still need somewhere to go.
        self._recorder = recorder
        #: (issue, id(option)) -> the shared pair; see :meth:`_assignment`.
        self._pairs: Dict[Tuple[str, int], Tuple[str, object]] = {}
        #: Rendered merits -> the shared point; see :meth:`_point`.
        self._points: Dict[str, Tuple[Tuple[Tuple[str, float], ...],
                                      Tuple[float, ...]]] = {}
        session.checkpoint(ROOT_TAG)

    @property
    def _obs(self):
        if self._recorder is not None:
            return self._recorder
        return self.session.layer.observer

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def next_issue(self, depth: int = 0) -> Optional[DesignIssue]:
        """The issue to address next, or None at a terminal position.

        Honors ``problem.issues`` (ordered subset) when given, otherwise
        takes the first addressable issue; ``problem.max_depth`` bounds
        the path length.
        """
        problem = self.problem
        if problem.max_depth is not None and depth >= problem.max_depth:
            return None
        addressable = self.session.addressable_issues()
        if problem.issues:
            decided = self.session.decisions
            by_name = {issue.name: issue for issue in addressable}
            for name in problem.issues:
                if name in decided:
                    continue
                if name in by_name:
                    return by_name[name]
            return None
        return addressable[0] if addressable else None

    def options(self, issue: DesignIssue) -> List[OptionInfo]:
        return self.session.available_options(
            issue.name, limit=self.problem.option_limit)

    def screen(self, issue: DesignIssue, info: OptionInfo) -> Optional[str]:
        """Reason to cut an opened branch before deciding it, or None."""
        if self.masked(issue, info):
            # Statically proved dead by the verifier; cut before any
            # runtime screening.
            return "proved-dead"
        if info.eliminated:
            return "eliminated"
        if info.candidate_count == 0 and self.problem.estimator is None:
            # Nothing survives down there and there is no estimation
            # fallback: the branch cannot produce an outcome.
            return "empty"
        return None

    def bound(self, info: OptionInfo) -> Tuple[float, ...]:
        """Optimistic per-metric bound vector of one option's region:
        the ideal point of its candidates (``merit_bounds`` of its
        ranges, without computing their maxima)."""
        return info.index.merit_minima(info.candidate_ids, self.metrics)

    def masked(self, issue: DesignIssue, info: OptionInfo) -> bool:
        """True when the problem's verifier dead mask proves this option
        cannot contribute an outcome at the current position.

        The mask (:meth:`VerifyAnalysis.prune_mask`) holds
        ``(cdo, issue, repr(option))`` triples whose subtree was proved
        outcome-free by abstract interpretation; skipping them cannot
        change the frontier.  With an estimator configured the proofs no
        longer cover estimated outcomes, so the mask is ignored.
        """
        mask = self.problem.dead_mask
        if not mask or self.problem.estimator is not None:
            return False
        return (self.session.current_cdo.qualified_name, issue.name,
                repr(info.option)) in mask

    def decide(self, issue: DesignIssue, option: object) -> bool:
        """Commit one decision; False when constraints reject it (the
        session is left unchanged in that case)."""
        name = issue.name if isinstance(issue, DesignIssue) else str(issue)
        try:
            self.session.decide(name, option)
        except (ConstraintViolation, SessionError):
            return False
        self.stats.expanded += 1
        return True

    def undo(self) -> None:
        self.session.undo()

    def goto(self, path: Sequence[Tuple[str, object]]) -> bool:
        """Return to the root checkpoint and replay a decision path."""
        self.session.restore(ROOT_TAG)
        for name, option in path:
            try:
                self.session.decide(name, option)
            except (ConstraintViolation, SessionError):
                return False
        return True

    # ------------------------------------------------------------------
    # accounting / tracing
    # ------------------------------------------------------------------
    def branch_open(self, issue: DesignIssue, info: OptionInfo,
                    anchor: bool = False) -> Optional[TraceEvent]:
        """Record one opened branch.

        ``anchor=True`` (parallel fan-out only) emits the event through
        :meth:`TraceRecorder.emit_anchor
        <repro.core.obs.recorder.TraceRecorder.emit_anchor>` so it owns
        a span id the engine can reparent the branch's absorbed worker
        trace under.  Returns the emitted event when tracing is on.
        """
        self.stats.opened += 1
        obs = self._obs
        if obs.enabled:
            emit = obs.emit_anchor if anchor else obs.emit
            return emit(_ev.BRANCH_OPEN, issue=issue.name,
                        option=info.option,
                        candidates=info.candidate_count)
        return None

    def branch_pruned(self, issue: DesignIssue, info: OptionInfo,
                      reason: str) -> None:
        self.stats.prune(reason)
        obs = self._obs
        if obs.enabled:
            obs.emit(_ev.BRANCH_PRUNED, issue=issue.name,
                     option=info.option, reason=reason)

    def prune_path(self, path: Sequence[Tuple[str, object]],
                   reason: str) -> None:
        """Record the cut of an already-opened branch (beam overflow)."""
        self.stats.prune(reason)
        obs = self._obs
        if obs.enabled:
            name, option = path[-1]
            obs.emit(_ev.BRANCH_PRUNED, issue=name, option=option,
                     reason=reason)

    # ------------------------------------------------------------------
    # terminals
    # ------------------------------------------------------------------
    def _assignment(self) -> Tuple[Tuple[str, object], ...]:
        """The session's decisions sorted by issue name, as an outcome
        holds them.  Each (issue, option) pair is built once per context
        and shared by every outcome that carries it."""
        pairs = self._pairs
        out = []
        for name, option in sorted(self.session.decisions.items(),
                                   key=lambda item: item[0]):
            # Keyed on the option's identity: the memo keeps the option
            # alive, so its id cannot be reused, and 1 / 1.0 / True stay
            # distinct pairs.
            # dsa: allow[DSA042] -- memo key only; the pair holds the option
            key = (name, id(option))
            pair = pairs.get(key)
            if pair is None:
                pair = pairs[key] = (name, option)
            out.append(pair)
        return tuple(out)

    def _point(self, merits: Tuple[Tuple[str, float], ...],
               coords: Tuple[float, ...]
               ) -> Tuple[Tuple[Tuple[str, float], ...], Tuple[float, ...]]:
        """``(merits, coords)`` shared by every outcome of the walk with the
        same merits.  A frontier keeps ties, and a kept result holds its
        members: the 50 of a 50k-core walk have 3 distinct merit vectors.
        Keyed by rendering, which tells -0.0 from 0.0; a NaN equals
        nothing, so its holder keeps its own."""
        if any(value != value for value in coords):
            return merits, coords
        return self._points.setdefault(repr(merits), (merits, coords))

    def terminal(self, via: Optional[OptionInfo] = None,
                 dominated: bool = False) -> List[Outcome]:
        """Collect the current position's outcomes into the frontier.

        One outcome per surviving core; when the surviving set is empty
        and the problem has an estimator, one estimated outcome (the
        paper's conceptual-design fallback).  Returns the outcomes that
        joined the frontier.

        Every survivor counts as an offered outcome, but only those the
        frontier does not reject on their coordinates become
        :class:`Outcome` objects: nearly all of a terminal's cores are
        dominated, and a rejected offer changes nothing.  When a member
        strictly dominates the survivors' ideal point (each metric's
        minimum over them) it strictly dominates every survivor, so the
        terminal is counted without visiting a core.

        ``via`` is the option a walk decided last to get here, after
        testing its :meth:`bound` against the frontier (which has not
        changed since), and ``dominated`` the result, or True anywhere
        below an option found dominated.  The option's candidates are exactly this
        position's survivors, so a dominated terminal with candidates is
        counted from ``via`` without a prune, and a live one skips the
        ideal-point test its option already failed.
        """
        self.stats.terminals += 1
        if dominated and via.candidate_count:
            self.stats.outcomes += via.candidate_count
            return []
        report = None if dominated else self.session.prune_report()
        if report is not None and report.survivor_ids:
            added = self._offer_survivors(report, leaf_bound=via is None)
        elif self.problem.estimator is not None:
            added = self._estimate()
        else:
            added = []
        obs = self._obs
        if added and obs.enabled:
            obs.emit(_ev.FRONTIER_UPDATE, size=len(self.frontier),
                     added=len(added))
        return added

    def _offer_survivors(self, report: IndexedPruneReport,
                         leaf_bound: bool) -> List[Outcome]:
        """Count the survivors and offer the ones the frontier would take;
        with ``leaf_bound``, first test their ideal point."""
        ids = report.survivor_ids
        metrics = self.metrics
        frontier = self.frontier
        self.stats.outcomes += len(ids)
        added: List[Outcome] = []
        if leaf_bound and frontier.dominates_bound(
                report.index.merit_minima(ids, metrics)):
            return added
        decisions = self._assignment()
        cdo = self.session.current_cdo.qualified_name
        path_key = render_path(decisions)
        worst = (math.inf,) * len(metrics)
        for core in report.survivors:
            merits = core.merits
            coords = tuple(map(merits.get, metrics, worst))
            if frontier.rejects((path_key, core.name), coords):
                continue
            shared, coords = self._point(
                tuple((m, value) for m, value in zip(metrics, coords)
                      if m in merits), coords)
            outcome = Outcome(decisions, cdo, core.name, shared,
                              path_key=path_key)
            if frontier.add(outcome, coords):
                added.append(outcome)
        return added

    def _estimate(self) -> List[Outcome]:
        """Offer the estimator's outcome for a position with no survivor."""
        session = self.session
        self.stats.evaluations += 1
        estimates = dict(self.problem.estimator(session))
        merits = tuple((m, float(estimates[m]))
                       for m in self.metrics if m in estimates)
        outcome = Outcome(self._assignment(),
                          session.current_cdo.qualified_name, ESTIMATED,
                          merits, estimated=True)
        self.stats.outcomes += 1
        return [outcome] if self.frontier.add(outcome) else []


@dataclass
class ExplorationResult:
    """What one engine run produced."""

    strategy: str
    frontier: ParetoFrontier
    stats: ExplorationStats
    jobs: int = 1
    elapsed_s: float = 0.0
    #: Parallel dispatch accounting (chunks, steals, hydrations, worker
    #: utilization) from the pool's last dispatch; None on serial runs.
    pool: Optional[Dict[str, object]] = None

    def to_dict(self, include_timing: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "strategy": self.strategy,
            "jobs": self.jobs,
            "stats": self.stats.to_dict(),
            "frontier": self.frontier.to_dict(),
            "digest": self.frontier.digest(),
        }
        if self.pool is not None:
            out["pool"] = dict(self.pool)
        if include_timing:
            out["elapsed_s"] = self.elapsed_s
        return out

    def render_text(self, limit: int = 10) -> str:
        """Report; deterministic (no wall-clock times) for serial runs.

        Parallel runs append a pool footer whose steal / hydration
        figures depend on worker scheduling.
        """
        lines = [f"Exploration [{self.strategy}] jobs={self.jobs}",
                 f"  {self.stats.describe()}",
                 "  " + self.frontier.render_text(limit).replace(
                     "\n", "\n  ")]
        ranking = self.frontier.weighted_ranking()
        if ranking:
            score, best = ranking[0]
            if score != float("inf"):
                lines.append(f"  best (weighted): {best.describe()} "
                             f"[score {score:g}]")
            else:
                lines.append(f"  best (weighted): {best.describe()}")
        if self.pool is not None:
            p = self.pool

            def num(key: str) -> float:
                value = p.get(key, 0)
                return float(value) if isinstance(value, (int, float)) \
                    else 0.0

            bits = [f"pool: workers={p.get('workers', self.jobs)}",
                    f"chunks={p.get('chunks', 0)}"
                    f"(x{p.get('chunk_size', 0)})",
                    f"steals={p.get('steals', 0)}",
                    f"hydrates={p.get('hydrates', 0)}"
                    f" ({p.get('hydrate_ms', 0)} ms)"]
            if num("utilization"):
                bits.append(f"utilization={num('utilization'):.0%}")
            if num("restarts"):
                bits.append(f"restarts={p.get('restarts')}")
            lines.append("  " + " ".join(bits))
        return "\n".join(lines)


class ExplorationEngine:
    """Drives one problem with one strategy, optionally in parallel.

    ``pool`` lends the engine a caller-owned
    :class:`~repro.core.explore.parallel.WorkerPool` (never closed by
    the engine, and its ``jobs`` win); without one, each parallel
    ``run()`` starts a pool of its own and closes it on return.
    """

    def __init__(self, problem: ExplorationProblem,
                 strategy: str = "exhaustive", jobs: int = 1,
                 strategy_options: Optional[Mapping[str, object]] = None,
                 chunk_size: Optional[int] = None,
                 pool: Optional["WorkerPool"] = None,
                 trace_sample_rate: Optional[float] = None):
        if jobs < 1:
            raise ExplorationError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ExplorationError(
                f"chunk size must be >= 1, got {chunk_size}")
        if trace_sample_rate is not None \
                and not 0.0 <= trace_sample_rate <= 1.0:
            raise ExplorationError(
                "trace_sample_rate must be in [0, 1], got "
                f"{trace_sample_rate}")
        self.problem = problem
        self.strategy_name = strategy
        self.strategy_options: Dict[str, object] = dict(strategy_options or {})
        # Validate eagerly: a typo'd strategy or option should fail at
        # construction, not inside a worker.
        self._strategy: SearchStrategy = make_strategy(
            strategy, **self.strategy_options)
        # A lent pool defines the parallelism shape; adopting its jobs
        # keeps the result record honest.
        self.jobs = pool.jobs if pool is not None else jobs
        self.chunk_size = chunk_size
        #: Per-branch trace sampling rate for parallel runs; None means
        #: the adaptive default (full tracing up to 16 tasks, decaying
        #: beyond — see :func:`repro.core.obs.context.adaptive_sample_rate`).
        self.trace_sample_rate = trace_sample_rate
        self.pool = pool

    # ------------------------------------------------------------------
    def run(self) -> ExplorationResult:
        layer = self.problem.resolve_layer()
        obs = layer.observer
        if obs.enabled:
            obs.emit(_ev.EXPLORE_START, strategy=self.strategy_name,
                     start=self.problem.start,
                     metrics=list(self.problem.metrics),
                     jobs=self.jobs)
        # dsa: allow[DSA040] -- elapsed_s telemetry only; never digested
        started = time.perf_counter()
        pool_stats: Optional[Dict[str, object]] = None
        if self.jobs > 1:
            frontier, stats, pool_stats = self._run_parallel(layer)
        else:
            frontier, stats = self._run_serial(layer)
        # dsa: allow[DSA040] -- elapsed_s is telemetry; digests exclude it
        elapsed = time.perf_counter() - started
        return ExplorationResult(
            strategy=self._strategy.describe(), frontier=frontier,
            stats=stats, jobs=self.jobs, elapsed_s=elapsed,
            pool=pool_stats)

    def _run_serial(self, layer: DesignSpaceLayer
                    ) -> Tuple[ParetoFrontier, ExplorationStats]:
        frontier = ParetoFrontier(self.problem.metrics)
        stats = ExplorationStats()
        try:
            session = self.problem.open_session(layer)
        except (ConstraintViolation, PropertyError, SessionError) as exc:
            raise ExplorationError(
                f"problem prefix is infeasible: {exc}") from exc
        ctx = SearchContext(self.problem, session, frontier, stats)
        self._strategy.search(ctx)
        return frontier, stats

    # ------------------------------------------------------------------
    # parallel orchestration
    # ------------------------------------------------------------------
    def _run_parallel(self, layer: DesignSpaceLayer
                      ) -> Tuple[ParetoFrontier, ExplorationStats,
                                 Dict[str, object]]:
        from repro.core.explore.parallel import BranchTask, WorkerPool

        frontier = ParetoFrontier(self.problem.metrics)
        stats = ExplorationStats()
        obs = layer.observer
        tasks: List[BranchTask] = []
        #: Per-task ``branch_open`` anchor events (parallel to ``tasks``);
        #: absorbed worker spans reparent under them.
        anchors: List[Optional[TraceEvent]] = []

        if self._strategy.parallel_mode == "islands":
            # Island model: independent populations, derived seeds.
            base_seed = int(self.strategy_options.get("seed", 0))
            for island in range(self.jobs):
                options = dict(self.strategy_options)
                options["seed"] = base_seed + island
                tasks.append(BranchTask(
                    problem=self.problem, strategy=self.strategy_name,
                    options=options, label=f"island-{island}"))
                anchors.append(None)
        else:
            # Root fan-out: one task per viable option of the first issue.
            try:
                session = self.problem.open_session(layer)
            except (ConstraintViolation, PropertyError, SessionError) as exc:
                raise ExplorationError(
                    f"problem prefix is infeasible: {exc}") from exc
            probe = SearchContext(self.problem, session, frontier, stats)
            if obs.enabled:
                # One explicit pruning checkpoint at the fan-out root, so
                # replaying the merged trace has survivors to verify.
                session.prune_report()
            issue = probe.next_issue(0)
            if issue is None:
                probe.terminal()
                return frontier, stats, {}
            for info in probe.options(issue):
                opened = probe.branch_open(issue, info, anchor=obs.enabled)
                reason = probe.screen(issue, info)
                if reason is not None:
                    probe.branch_pruned(issue, info, reason)
                    continue
                branch = self.problem.with_prefix((issue.name, info.option))
                tasks.append(BranchTask(
                    problem=branch, strategy=self.strategy_name,
                    options=dict(self.strategy_options),
                    label=f"{issue.name}={info.option!r}"))
                anchors.append(opened)

        trace_base: Optional[TraceContext] = None
        if obs.enabled and tasks:
            trace_base = self.problem.trace
            if trace_base is None:
                trace_base = TraceContext.derive(
                    self.problem.start, self.problem.metrics,
                    self.problem.requirements, self.problem.decisions,
                    self.strategy_name,
                    sample_rate=self.trace_sample_rate, tasks=len(tasks))
            elif self.trace_sample_rate is not None:
                trace_base = replace(trace_base,
                                     sample_rate=self.trace_sample_rate)
            metrics = getattr(obs, "metrics", None)
            if metrics is not None:
                metrics.gauge(
                    "dsl_trace_sample_rate",
                    "per-branch sampling rate of the last traced "
                    "parallel dispatch").set(trace_base.sample_rate)
            for index, task in enumerate(tasks):
                anchor = anchors[index]
                task.problem = replace(
                    task.problem,
                    trace=trace_base.for_task(
                        index,
                        anchor.span if anchor is not None else None))

        pool = self.pool
        if pool is None:
            # ``trace_base`` reaches the initializer of the pool this run
            # owns; a lent pool keeps the context it was started with.
            pool = WorkerPool(jobs=self.jobs, snapshot=self.problem.snapshot,
                              chunk_size=self.chunk_size, trace=trace_base)
        try:
            results = pool.map(tasks)
        finally:
            if pool is not self.pool:
                pool.close()
        absorb = getattr(obs, "absorb", None)
        for index, result in enumerate(results):
            stats.merge(result.stats)
            if absorb is not None \
                    and (result.trace or result.trace_dropped):
                anchor = anchors[index] if index < len(anchors) else None
                absorb(result.trace,
                       parent=anchor.span if anchor is not None else None,
                       offset_s=(anchor.elapsed_s
                                 if anchor is not None else 0.0),
                       dropped=result.trace_dropped)
            added = sum(1 for outcome in result.outcomes
                        if frontier.add(outcome))
            if added and obs.enabled:
                obs.emit(_ev.FRONTIER_UPDATE, size=len(frontier),
                         added=added, branch=result.label)
        dispatch = pool.last_dispatch
        if obs.enabled:
            if dispatch.hydrates:
                obs.emit(_ev.WORKER_HYDRATE, count=dispatch.hydrates,
                         seconds=dispatch.hydrate_s,
                         source="snapshot" if self.problem.snapshot
                         is not None else "factory")
            if dispatch.chunks:
                obs.emit(_ev.CHUNK_DISPATCH, tasks=dispatch.tasks,
                         chunks=dispatch.chunks,
                         chunk_size=dispatch.chunk_size,
                         workers=pool.jobs,
                         utilization=round(dispatch.utilization, 4))
            if dispatch.steals:
                obs.emit(_ev.CHUNK_STEAL, count=dispatch.steals)
        pool_stats: Dict[str, object] = {"workers": pool.jobs}
        pool_stats.update(dispatch.to_dict())
        return frontier, stats, pool_stats


def explore(problem: ExplorationProblem, strategy: str = "exhaustive",
            jobs: int = 1, chunk_size: Optional[int] = None,
            pool: Optional["WorkerPool"] = None,
            trace_sample_rate: Optional[float] = None,
            **strategy_options: object) -> ExplorationResult:
    """One-call convenience wrapper around :class:`ExplorationEngine`.

    With ``jobs > 1`` the branches run on worker processes, so the
    problem needs a picklable ``layer_factory`` or a ``snapshot``.  Pass
    ``pool`` to dispatch on a caller-owned persistent
    :class:`~repro.core.explore.parallel.WorkerPool` (its jobs take
    precedence); otherwise a pool lives for this call only.
    ``trace_sample_rate`` overrides the adaptive per-branch sampling
    rate of traced parallel runs (see ``docs/observability.md``).
    """
    engine = ExplorationEngine(problem, strategy=strategy, jobs=jobs,
                               strategy_options=strategy_options,
                               chunk_size=chunk_size, pool=pool,
                               trace_sample_rate=trace_sample_rate)
    return engine.run()
