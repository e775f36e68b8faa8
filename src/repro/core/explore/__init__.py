"""Automated exploration over the design space layer.

The paper's layer reports, after every manual decision, which cores
survive and what figure-of-merit ranges remain — this package closes the
loop and drives those decisions automatically: two exact search
strategies (exhaustive and branch-and-bound) walk
:class:`~repro.core.session.ExplorationSession` objects, terminal
outcomes accumulate on a :class:`ParetoFrontier`.  Every search is one
serial walk, as the paper's designer makes it.  See
``docs/exploration.md`` for the strategy catalogue.
"""

from repro.core.explore.engine import (
    ExplorationEngine,
    ExplorationResult,
    ExplorationStats,
    SearchContext,
    explore,
)
from repro.core.explore.outcome import (
    ESTIMATED,
    Outcome,
    ParetoFrontier,
    weighted_sum,
)
from repro.core.explore.problem import ExplorationProblem
from repro.core.explore.strategies import (
    STRATEGIES,
    BranchAndBoundStrategy,
    ExhaustiveStrategy,
    SearchStrategy,
)

__all__ = [
    "ESTIMATED",
    "BranchAndBoundStrategy",
    "ExhaustiveStrategy",
    "ExplorationEngine",
    "ExplorationProblem",
    "ExplorationResult",
    "ExplorationStats",
    "Outcome",
    "ParetoFrontier",
    "STRATEGIES",
    "SearchContext",
    "SearchStrategy",
    "explore",
    "weighted_sum",
]
