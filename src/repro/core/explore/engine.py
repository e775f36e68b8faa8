"""The exploration engine: automated search over a design space layer.

The engine turns an :class:`~repro.core.explore.problem.ExplorationProblem`
into a driven :class:`~repro.core.session.ExplorationSession` walk.  A
:class:`SearchContext` mediates between strategy and session — opening
branches, deciding/undoing, collecting terminal outcomes into a
:class:`~repro.core.explore.outcome.ParetoFrontier`, and emitting obs
trace events (``explore_start``, ``branch_open``, ``branch_pruned``,
``frontier_update``) along the way.

Every run is one serial walk on one session, so the frontier and the
stats depend only on the problem and the strategy.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.explore.outcome import (
    ESTIMATED,
    Outcome,
    ParetoFrontier,
    render_path,
)
from repro.core.explore.problem import ExplorationProblem
from repro.core.explore.strategies import STRATEGIES, SearchStrategy
from repro.core.index import CoreIndex, IdSet
from repro.core.obs import events as _ev
from repro.core.properties import DesignIssue
from repro.core.session import ExplorationSession, OptionInfo
from repro.core.values import EnumDomain
from repro.errors import (
    ConstraintViolation,
    ExplorationError,
    PropertyError,
    SessionError,
)

#: Checkpoint tag marking the context's root position (problem prefix
#: applied, nothing decided by the strategy yet).  Every traced
#: exploration records its ``checkpoint`` event.
ROOT_TAG = "__explore_root__"


@dataclass
class ExplorationStats:
    """Work accounting for one search."""

    #: Branches considered (one per issue option looked at).
    opened: int = 0
    #: Branches cut without descending, by reason
    #: (``eliminated`` / ``empty`` / ``constraint`` / ``bound`` /
    #: ``proved-dead``).
    pruned: Dict[str, int] = field(default_factory=dict)
    #: Successful decide() descents.
    expanded: int = 0
    #: Terminal positions reached.
    terminals: int = 0
    #: Outcomes offered to the frontier (before dominance filtering).
    outcomes: int = 0
    #: Estimator evaluations (positions with no surviving core).
    evaluations: int = 0

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned.values())

    def prune(self, reason: str) -> None:
        self.pruned[reason] = self.pruned.get(reason, 0) + 1

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


def _count_below(stats: ExplorationStats, levels: List[List[Optional[int]]],
                 ids: int, level: int = 0) -> None:
    """Count the positions below one whose candidate mask is ``ids``:
    ``levels[level]`` holds the decision mask of each option of the next
    issue, or None for an option proved dead."""
    if level == len(levels):
        stats.terminals += 1
        stats.outcomes += len(IdSet(ids))
        return
    for option_ids in levels[level]:
        stats.opened += 1
        if option_ids is None:
            stats.prune("proved-dead")
            continue
        below = ids & option_ids
        if not below:
            stats.prune("empty")
            continue
        stats.expanded += 1
        _count_below(stats, levels, below, level + 1)


class SearchContext:
    """What a strategy sees: one session plus frontier, stats and trace.

    A strategy walks the session depth-first from the context's root
    position (checkpointed as :data:`ROOT_TAG`): it decides an option,
    descends, and undoes it.
    """

    def __init__(self, problem: ExplorationProblem,
                 session: ExplorationSession,
                 frontier: Optional[ParetoFrontier] = None,
                 stats: Optional[ExplorationStats] = None):
        self.problem = problem
        self.session = session
        self.metrics: Tuple[str, ...] = tuple(problem.metrics)
        self.frontier = frontier if frontier is not None \
            else ParetoFrontier(self.metrics)
        self.stats = stats if stats is not None else ExplorationStats()
        # Kept in the layer memo, so the walks over the layer at one epoch
        # share them; see :meth:`_assignment` and :meth:`_point`.
        memo = session.layer.memo
        self._pairs: Dict[Tuple[str, int], Tuple[str, object]] = memo(
            ("explore", "pairs"), dict)
        self._assignments: Dict[Tuple[Tuple[str, int], ...],
                                Tuple[Tuple[str, object], ...]] = memo(
            ("explore", "assignments"), dict)
        self._points: Dict[str, Tuple[Tuple[Tuple[str, float], ...],
                                      Tuple[float, ...]]] = memo(
            ("explore", "points", self.metrics), dict)
        session.checkpoint(ROOT_TAG)

    @property
    def _obs(self):
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

    def count_dominated(self, via: OptionInfo, depth: int,
                        issue: Optional[DesignIssue] = None) -> bool:
        """Count the branch below ``via`` from bitmasks instead of deciding
        through it; False, with nothing counted, where the session must
        descend it.

        A frontier member strictly dominates ``via``'s :meth:`bound`, so
        no outcome below can join: the branch yields only counts, and
        they are the counts the session descent records.  Without
        ``issue``, ``via`` is the option decided last and the session
        sits at ``depth``.  With ``issue``, ``via`` is an option of it
        opened at ``depth`` and not decided yet, and the count includes
        that decision.

        The issues left are addressed in :meth:`next_issue` order, each
        option is screened as :meth:`screen` does (proved-dead, then
        empty; nothing is eliminated without a constraint), and its
        candidates are its parent's ANDed with
        :meth:`CoreIndex.decision_ids
        <repro.core.index.CoreIndex.decision_ids>`, starting from
        ``via.candidate_ids``.  Each terminal adds its candidate count
        to ``stats.outcomes``, as :meth:`terminal` counts a dominated
        one.

        The masks stand in for the session only while nothing below can
        move it differently, so the session descends where the problem
        has an estimator, where tracing is on (the descent's events are
        the trace), where a consistency constraint applies at the
        current CDO (it orders issues, eliminates options and rejects
        decisions), or where an issue to decide is generalized (the CDO
        would move) or not an :class:`EnumDomain` (its options could
        depend on the context).
        """
        problem = self.problem
        session = self.session
        if (problem.estimator is not None or self._obs.enabled
                or session.applicable_constraints()):
            return False
        first = [] if issue is None else [issue.name]
        addressable = [prop.name for prop in session.addressable_issues()
                       if prop.name not in first]
        names = list(dict.fromkeys(
            [name for name in problem.issues if name in addressable]
            if problem.issues else addressable))
        depth += len(first)
        if problem.max_depth is not None:
            names = names[:max(problem.max_depth - depth, 0)]
        cdo = session.current_cdo
        props = [cdo.find_property(name) for name in first + names]
        if any(prop.generalized or not isinstance(prop.domain, EnumDomain)
               for prop in props):
            return False
        mask = problem.dead_mask or ()
        index = via.index
        levels = [[
            None if (cdo.qualified_name, prop.name, repr(option)) in mask
            else index.decision_ids(prop.name, option,
                                    session.missing_policy).mask
            for option in prop.options(limit=problem.option_limit)]
            for prop in props[len(first):]]
        self.stats.expanded += len(first)
        _count_below(self.stats, levels, via.candidate_ids.mask)
        return True

    # ------------------------------------------------------------------
    # accounting / tracing
    # ------------------------------------------------------------------
    def branch_open(self, issue: DesignIssue, info: OptionInfo) -> None:
        """Record one opened branch."""
        self.stats.opened += 1
        obs = self._obs
        if obs.enabled:
            obs.emit(_ev.BRANCH_OPEN, issue=issue.name, option=info.option,
                     candidates=info.candidate_count)

    def branch_pruned(self, issue: DesignIssue, info: OptionInfo,
                      reason: str) -> None:
        self.stats.prune(reason)
        obs = self._obs
        if obs.enabled:
            obs.emit(_ev.BRANCH_PRUNED, issue=issue.name,
                     option=info.option, reason=reason)

    # ------------------------------------------------------------------
    # terminals
    # ------------------------------------------------------------------
    def _assignment(self) -> Tuple[Tuple[str, object], ...]:
        """The session's decisions sorted by issue name, as an outcome
        holds them.  Each (issue, option) pair and each assignment is
        built once for the walks over the layer and shared by every
        outcome that carries it: kept results then hold one copy, as
        they hold one copy of each path."""
        items = sorted(self.session.decisions.items(),
                       key=lambda item: item[0])
        # Keyed on each option's identity: the memos keep the options
        # alive, so an id cannot be reused, and 1 / 1.0 / True stay
        # distinct.
        # dsa: allow[DSA042] -- memo keys only; the pairs hold the options
        keys = tuple((name, id(option)) for name, option in items)
        shared = self._assignments.get(keys)
        if shared is None:
            pairs = self._pairs
            shared = self._assignments[keys] = tuple(
                pairs.setdefault(key, item) for key, item in zip(keys, items))
        return shared

    def _point(self, merits: Tuple[Tuple[str, float], ...],
               coords: Tuple[float, ...]
               ) -> Tuple[Tuple[Tuple[str, float], ...], Tuple[float, ...]]:
        """``(merits, coords)`` shared by every outcome with the same
        merits of the walks over the layer with these metrics.  A
        frontier keeps ties, and a kept result holds its members: the 50
        of a 50k-core walk have 3 distinct merit vectors.  Keyed by
        rendering, which tells -0.0 from 0.0; a NaN equals nothing, so
        its holder keeps its own."""
        if any(value != value for value in coords):
            return merits, coords
        return self._points.setdefault(repr(merits), (merits, coords))

    def terminal(self, via: Optional[OptionInfo] = None,
                 dominated: bool = False) -> List[Outcome]:
        """Collect the current position's outcomes into the frontier.

        One outcome per surviving core; when the surviving set is empty
        and the problem has an estimator, one estimated outcome (the
        paper's conceptual-design fallback).  Returns the outcomes that
        joined the frontier and are still members when it returns.

        Every survivor counts as an offered outcome, but only those on
        the survivors' skyline that the frontier does not reject on
        their coordinates become :class:`Outcome` objects: nearly all of
        a terminal's cores are dominated, and a rejected offer changes
        nothing.  When a member strictly dominates the survivors' ideal
        point (each metric's minimum over them) it strictly dominates
        every survivor, so the terminal is counted without visiting a
        core.

        ``via`` is the option a walk decided last to get here, after
        testing its :meth:`bound` against the frontier (which has not
        changed since), and ``dominated`` the result, or True anywhere
        below an option found dominated.  The option's candidates are
        exactly this position's survivors, so a dominated terminal with
        candidates is counted from ``via`` without a prune, and a live
        one skips the ideal-point test its option already failed and,
        untraced, offers ``via``'s candidates without a prune either
        (traced, the prune's event is part of the trace).  A dominated
        branch normally never gets here: the walk counts it with
        :meth:`count_dominated`, and a dominated terminal is reached
        only where that falls back to the session descent.
        """
        self.stats.terminals += 1
        if dominated and via.candidate_count:
            self.stats.outcomes += via.candidate_count
            return []
        obs = self._obs
        ids = None
        if via is not None and not obs.enabled:
            ids, decided, index = (via.candidate_ids, via.decided_ids,
                                   via.index)
        elif not dominated:
            report = self.session.prune_report()
            ids, decided, index = (report.survivor_ids, report.decided_ids,
                                   report.index)
        if ids:
            added = self._offer_survivors(ids, decided, index,
                                          leaf_bound=via is None)
        elif self.problem.estimator is not None:
            added = self._estimate()
        else:
            added = []
        if added and obs.enabled:
            obs.emit(_ev.FRONTIER_UPDATE, size=len(self.frontier),
                     added=len(added))
        return added

    def _offer_survivors(self, ids: IdSet, decided: IdSet, index: CoreIndex,
                         leaf_bound: bool) -> List[Outcome]:
        """Count the survivors ``ids`` and offer the ones the frontier
        would take; with ``leaf_bound``, first test their ideal point.

        Only the survivors' skyline is offered, in id order.  ``decided``
        is the position's ids before its requirements (a superset of
        ``ids``), whose sorted points ``index`` keeps once it has seen
        them twice (see :meth:`CoreIndex.skyline`).  A survivor
        left out is strictly dominated by a skyline one, which either
        joins or is itself dominated by a member that then dominates the
        survivor too; so the frontier ends exactly as if every survivor
        had been offered.  Two survivors with one name share an outcome
        key, and the first offered claims it, so then every survivor is
        offered in id order."""
        metrics = self.metrics
        frontier = self.frontier
        self.stats.outcomes += len(ids)
        added: List[Outcome] = []
        if leaf_bound and frontier.dominates_bound(
                index.merit_minima(ids, metrics)):
            return added
        decisions = self._assignment()
        cdo = self.session.current_cdo.qualified_name
        # Interned: kept results then share the paths every walk renders.
        path_key = sys.intern(render_path(decisions))
        repeated = bool(ids & index.repeated_names)
        offered = (list(ids) if repeated
                   else index.skyline(ids, metrics, within=decided))
        for i in offered:
            name = index.names[i]
            coords = index.merit_coords(i, metrics)
            if frontier.rejects((path_key, name), coords):
                continue
            core = index.cores[i]
            shared, coords = self._point(
                tuple((m, value) for m, value in zip(metrics, coords)
                      if core.has_merit(m)), coords)
            outcome = Outcome(decisions, cdo, name, shared,
                              path_key=path_key)
            if frontier.add(outcome, coords):
                added.append(outcome)
        if repeated:  # a later survivor may have evicted an earlier one
            added = [outcome for outcome in added if outcome in frontier]
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
    elapsed_s: float = 0.0

    def to_dict(self, include_timing: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "strategy": self.strategy,
            "stats": self.stats.to_dict(),
            "frontier": self.frontier.to_dict(),
            "digest": self.frontier.digest(),
        }
        if include_timing:
            out["elapsed_s"] = self.elapsed_s
        return out

    def render_text(self, limit: int = 10) -> str:
        """Report; deterministic (no wall-clock times)."""
        lines = [f"Exploration [{self.strategy}]",
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
        return "\n".join(lines)


class ExplorationEngine:
    """Drives one problem with one strategy."""

    def __init__(self, problem: ExplorationProblem,
                 strategy: str = "exhaustive"):
        self.problem = problem
        self.strategy_name = strategy
        # Validate eagerly: a typo'd strategy should fail at
        # construction, not halfway through a run.
        try:
            self._strategy: SearchStrategy = STRATEGIES[strategy]()
        except KeyError:
            raise ExplorationError(
                f"unknown exploration strategy {strategy!r}; "
                f"known: {sorted(STRATEGIES)}") from None

    # ------------------------------------------------------------------
    def run(self) -> ExplorationResult:
        layer = self.problem.resolve_layer()
        obs = layer.observer
        if obs.enabled:
            obs.emit(_ev.EXPLORE_START, strategy=self.strategy_name,
                     start=self.problem.start,
                     metrics=list(self.problem.metrics))
        # dsa: allow[DSA040] -- elapsed_s telemetry only; never digested
        started = time.perf_counter()
        frontier = ParetoFrontier(self.problem.metrics)
        stats = ExplorationStats()
        try:
            session = self.problem.open_session(layer)
        except (ConstraintViolation, PropertyError, SessionError) as exc:
            raise ExplorationError(
                f"problem prefix is infeasible: {exc}") from exc
        self._strategy.search(SearchContext(self.problem, session,
                                            frontier, stats))
        # dsa: allow[DSA040] -- elapsed_s is telemetry; digests exclude it
        elapsed = time.perf_counter() - started
        return ExplorationResult(
            strategy=self._strategy.name, frontier=frontier,
            stats=stats, elapsed_s=elapsed)


def explore(problem: ExplorationProblem,
            strategy: str = "exhaustive") -> ExplorationResult:
    """One-call convenience wrapper around :class:`ExplorationEngine`."""
    return ExplorationEngine(problem, strategy=strategy).run()
