"""Search strategies for the exploration engine.

Every strategy drives a :class:`~repro.core.explore.engine.SearchContext`
— a thin facade over one :class:`~repro.core.session.ExplorationSession`
— and leaves its results in the context's frontier and stats.  Two are
built in, both exact:

``exhaustive``
    Depth-first enumeration of every feasible decision path; a branch
    the frontier already dominates is counted from its candidates'
    bitmasks instead of decided through (falling back to a count-only
    session descent where the masks cannot stand in for the session).
``bnb`` (branch-and-bound)
    Exhaustive plus bound pruning: a branch whose optimistic merit
    bounds (the per-metric minima over its surviving cores, shrinking
    monotonically along any path) are *strictly* dominated by a frontier
    member cannot contribute a frontier outcome — not even a tie — and
    is cut.  Returns exactly the exhaustive frontier, visiting fewer
    branches.

Strategies are registered by name in :data:`STRATEGIES`; neither takes
an option.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.explore.engine import SearchContext
    from repro.core.session import OptionInfo


class SearchStrategy:
    """Base class: a strategy is a callable policy over a SearchContext."""

    #: Registry key; subclasses override.
    name = "?"

    def search(self, ctx: "SearchContext") -> None:
        raise NotImplementedError


class ExhaustiveStrategy(SearchStrategy):
    """Depth-first enumeration of every feasible decision path.

    Each option that passes screening with candidates gets one bound
    check before it is decided (:meth:`SearchContext.bound
    <repro.core.explore.engine.SearchContext.bound>`).  A frontier
    member strictly dominating the option's ideal point strictly
    dominates every core below it, and the frontier only improves, so
    nothing under the option can join and the branch yields only
    counts.  The walk counts it from bitmasks
    (:meth:`SearchContext.count_dominated
    <repro.core.explore.engine.SearchContext.count_dominated>`): before
    deciding the option, or, when its issue is generalized, after the
    session has moved to the CDO it selects.  Where the masks cannot
    stand in for the session (an estimator, tracing, an applicable
    consistency constraint, or a generalized or non-enumerated issue
    still to decide), the session descends the branch with the same
    decisions and branch accounting, and its terminals count their
    survivors from the option that led there instead of offering them
    (see :meth:`SearchContext.terminal
    <repro.core.explore.engine.SearchContext.terminal>`).
    """

    name = "exhaustive"

    #: Cut a dominated branch (reason ``"bound"``) instead of counting it.
    cuts_bound = False

    def search(self, ctx: "SearchContext") -> None:
        self._descend(ctx, depth=0)

    def _descend(self, ctx: "SearchContext", depth: int,
                 via: Optional["OptionInfo"] = None,
                 dominated: bool = False) -> None:
        issue = ctx.next_issue(depth)
        if issue is None:
            ctx.terminal(via, dominated)
            return
        for info in ctx.options(issue):
            ctx.branch_open(issue, info)
            reason = ctx.screen(issue, info)
            hit = dominated
            if reason is None and not dominated and info.candidate_count:
                hit = ctx.frontier.dominates_bound(ctx.bound(info))
                if hit and self.cuts_bound \
                        and ctx.problem.estimator is None:
                    reason = "bound"
            if reason is not None:
                ctx.branch_pruned(issue, info, reason)
                continue
            if hit and ctx.count_dominated(info, depth, issue):
                continue
            if not ctx.decide(issue, info.option):
                ctx.branch_pruned(issue, info, "constraint")
                continue
            if not (hit and ctx.count_dominated(info, depth + 1)):
                self._descend(ctx, depth + 1, info, hit)
            ctx.undo()


class BranchAndBoundStrategy(ExhaustiveStrategy):
    """Exhaustive search with merit-range bound pruning.

    Sound because merit ranges only shrink along a decision path (every
    decision prunes the surviving set), so the per-metric minima of a
    branch are optimistic bounds on every terminal outcome under it;
    and exact (ties preserved) because only *strict* dominance of the
    bound vector prunes.  With an estimator configured the bound no
    longer covers estimated outcomes, so a dominated branch is counted
    as exhaustive counts it, not cut.
    """

    name = "bnb"
    cuts_bound = True


#: Registry of built-in strategies; aliases included.
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    "exhaustive": ExhaustiveStrategy,
    "bnb": BranchAndBoundStrategy,
    "branch-and-bound": BranchAndBoundStrategy,
}
