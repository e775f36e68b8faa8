"""Pluggable search strategies for the exploration engine.

Every strategy drives a :class:`~repro.core.explore.engine.SearchContext`
— a thin facade over one :class:`~repro.core.session.ExplorationSession`
— and leaves its results in the context's frontier and stats.  Four are
built in:

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
``beam``
    Level-synchronous heuristic: keep the ``width`` best-scoring open
    branches per level (weighted sum of the optimistic bounds).
``evolutionary``
    Seeded genetic search over decision vectors (DAVOS-style): a genome
    is a tuple of integers, decoded at each addressable issue as
    ``gene % len(viable options)``; selection is by tournament on the
    best scalarized outcome the genome reaches.

Strategies are registered in :data:`STRATEGIES`;
:func:`make_strategy` instantiates by name with keyword options.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Type

from repro.core.explore.outcome import weighted_sum
from repro.errors import ExplorationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.explore.engine import SearchContext
    from repro.core.session import OptionInfo

#: A decision path relative to the context's root: ((issue, option), ...).
Path = Tuple[Tuple[str, object], ...]


def _option_sort_key(option: object) -> Tuple[str, str]:
    return (type(option).__name__, repr(option))


def _weights(weights: Optional[Mapping[str, float]]) -> Dict[str, float]:
    """Scalarization weights by metric, each finite and non-negative:
    only then does an outcome that another dominates never score below
    it, so a score does not hang on which dominated outcomes a terminal
    happened to return."""
    weights = dict(weights) if weights else {}
    for metric, weight in weights.items():
        if not (isinstance(weight, (int, float)) and math.isfinite(weight)
                and weight >= 0):
            raise ExplorationError(
                f"weight of {metric!r} must be a finite number >= 0, "
                f"got {weight!r}")
    return weights


class SearchStrategy:
    """Base class: a strategy is a callable policy over a SearchContext."""

    #: Registry key; subclasses override.
    name = "?"

    def search(self, ctx: "SearchContext") -> None:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


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


class BeamStrategy(SearchStrategy):
    """Level-synchronous beam search with configurable width.

    At each level every open branch expands its next issue; children
    are scored by the weighted sum of their optimistic merit bounds and
    only the ``width`` best survive to the next level (ties broken
    deterministically by issue/option/path text).  A heuristic: the
    frontier it returns is a subset of the exhaustive one.
    """

    name = "beam"

    def __init__(self, width: int = 4,
                 weights: Optional[Mapping[str, float]] = None):
        if width < 1:
            raise ExplorationError(f"beam width must be >= 1, got {width}")
        self.width = width
        self.weights = _weights(weights)

    def describe(self) -> str:
        return f"{self.name}(width={self.width})"

    def search(self, ctx: "SearchContext") -> None:
        vector = tuple(self.weights.get(m, 1.0) for m in ctx.metrics)
        beams: List[Path] = [()]
        depth = 0
        while beams:
            candidates: List[Tuple[float, str, Path]] = []
            for path in beams:
                if not ctx.goto(path):
                    continue  # prefix became infeasible (cannot happen
                    # for paths that decided cleanly, defensive only)
                issue = ctx.next_issue(depth)
                if issue is None:
                    ctx.terminal()
                    continue
                for info in ctx.options(issue):
                    ctx.branch_open(issue, info)
                    reason = ctx.screen(issue, info)
                    if reason is not None:
                        ctx.branch_pruned(issue, info, reason)
                        continue
                    score = weighted_sum(ctx.bound(info), vector)
                    child = path + ((issue.name, info.option),)
                    text = ", ".join(
                        f"{n}={r}" for n, r in
                        ((n, _option_sort_key(o)) for n, o in child))
                    candidates.append((score, text, child))
            candidates.sort(key=lambda item: (item[0], item[1]))
            beams = []
            for rank, (_, _, child) in enumerate(candidates):
                issue_name, option = child[-1]
                if rank >= self.width:
                    ctx.prune_path(child, "beam")
                    continue
                if ctx.goto(child):
                    ctx.stats.expanded += 1
                    beams.append(child)
                else:
                    ctx.prune_path(child, "constraint")
            depth += 1


class EvolutionaryStrategy(SearchStrategy):
    """Seeded genetic search over decision vectors.

    A genome is a fixed-length tuple of non-negative integers.  Decoding
    walks the addressable issues from the context root; at depth ``d``
    the gene ``genome[d % len(genome)]`` selects one of the issue's
    viable options by modulo.  Fitness is the best weighted-sum score
    among the outcomes the decoded terminal contributes (lower is
    better; a NaN score counts as none); a genome that is infeasible or
    contributes no scored outcome scores ``inf``.  All randomness flows
    from ``random.Random(seed)``, so equal seeds give byte-identical
    frontiers.
    """

    name = "evolutionary"

    def __init__(self, seed: int = 0, population: int = 16,
                 generations: int = 8, mutation_rate: float = 0.15,
                 genome_length: int = 8, elite: int = 2,
                 tournament: int = 3, gene_space: int = 64,
                 weights: Optional[Mapping[str, float]] = None):
        if population < 2:
            raise ExplorationError("population must be >= 2")
        if genome_length < 1:
            raise ExplorationError("genome_length must be >= 1")
        self.seed = seed
        self.population = population
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.genome_length = genome_length
        self.elite = max(0, min(elite, population - 1))
        self.tournament = max(2, tournament)
        self.gene_space = max(2, gene_space)
        self.weights = _weights(weights)

    def describe(self) -> str:
        return (f"{self.name}(seed={self.seed}, population="
                f"{self.population}, generations={self.generations})")

    # ------------------------------------------------------------------
    def _evaluate(self, ctx: "SearchContext",
                  genome: Tuple[int, ...],
                  vector: Tuple[float, ...],
                  memo: Dict[Tuple[int, ...], float]) -> float:
        if genome in memo:
            return memo[genome]
        score = math.inf
        if ctx.goto(()):
            depth = 0
            feasible = True
            while True:
                issue = ctx.next_issue(depth)
                if issue is None:
                    break
                viable = [info for info in ctx.options(issue)
                          if not info.eliminated
                          and (info.candidate_count > 0
                               or ctx.problem.estimator is not None)]
                if not viable:
                    feasible = False
                    break
                gene = genome[depth % len(genome)]
                info = viable[gene % len(viable)]
                if not ctx.decide(issue, info.option):
                    feasible = False
                    break
                depth += 1
            if feasible:
                added = ctx.terminal()
                ctx.stats.evaluations += 1
                # A NaN score is unordered: ``min`` would then depend
                # on the order of the outcomes.
                scores = [weighted_sum(o.coords(ctx.metrics), vector)
                          for o in added]
                score = min((s for s in scores if s == s),
                            default=math.inf)
        memo[genome] = score
        return score

    def search(self, ctx: "SearchContext") -> None:
        rng = random.Random(self.seed)
        vector = tuple(self.weights.get(m, 1.0) for m in ctx.metrics)
        memo: Dict[Tuple[int, ...], float] = {}

        def random_genome() -> Tuple[int, ...]:
            return tuple(rng.randrange(self.gene_space)
                         for _ in range(self.genome_length))

        population = [random_genome() for _ in range(self.population)]
        for generation in range(self.generations + 1):
            scored = [(self._evaluate(ctx, genome, vector, memo), genome)
                      for genome in population]
            scored.sort(key=lambda item: (item[0], item[1]))
            if generation == self.generations:
                break
            survivors = [genome for _, genome in scored]

            def pick() -> Tuple[int, ...]:
                entrants = [survivors[rng.randrange(len(survivors))]
                            for _ in range(self.tournament)]
                return min(entrants, key=lambda g: (memo[g], g))

            next_population = [genome for _, genome in scored[:self.elite]]
            while len(next_population) < self.population:
                mother, father = pick(), pick()
                cut = rng.randrange(1, self.genome_length) \
                    if self.genome_length > 1 else 0
                child = list(mother[:cut] + father[cut:])
                for i in range(len(child)):
                    if rng.random() < self.mutation_rate:
                        child[i] = rng.randrange(self.gene_space)
                next_population.append(tuple(child))
            population = next_population


#: Registry of built-in strategies; aliases included.
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    "exhaustive": ExhaustiveStrategy,
    "bnb": BranchAndBoundStrategy,
    "branch-and-bound": BranchAndBoundStrategy,
    "beam": BeamStrategy,
    "evolutionary": EvolutionaryStrategy,
    "ga": EvolutionaryStrategy,
}


def make_strategy(name: str, **options: object) -> SearchStrategy:
    """Instantiate a registered strategy by name with keyword options."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        known = sorted(set(STRATEGIES))
        raise ExplorationError(
            f"unknown exploration strategy {name!r}; known: {known}"
        ) from None
    try:
        return cls(**options)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ExplorationError(
            f"strategy {name!r} rejected options {sorted(options)}: {exc}"
        ) from None
