"""Automated exploration over the design space layer.

The paper's layer reports, after every manual decision, which cores
survive and what figure-of-merit ranges remain — this package closes the
loop and drives those decisions automatically: pluggable search
strategies (exhaustive, branch-and-bound, beam, evolutionary) walk
:class:`~repro.core.session.ExplorationSession` objects, terminal
outcomes accumulate on a :class:`ParetoFrontier`, and independent
branches can be evaluated in parallel by a snapshot-hydrated
:class:`WorkerPool` of processes with chunked work stealing.  See
``docs/exploration.md`` for the strategy catalogue and the parallelism
model.
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
from repro.core.explore.parallel import (
    BranchResult,
    BranchTask,
    DispatchStats,
    PoolStats,
    WorkerPool,
    chunk_count,
    evaluate_branch,
    evaluate_chunk,
)
from repro.core.explore.problem import ExplorationProblem
from repro.core.explore.strategies import (
    STRATEGIES,
    BeamStrategy,
    BranchAndBoundStrategy,
    EvolutionaryStrategy,
    ExhaustiveStrategy,
    SearchStrategy,
    make_strategy,
)

__all__ = [
    "ESTIMATED",
    "BeamStrategy",
    "BranchAndBoundStrategy",
    "BranchResult",
    "BranchTask",
    "DispatchStats",
    "EvolutionaryStrategy",
    "ExhaustiveStrategy",
    "ExplorationEngine",
    "ExplorationProblem",
    "ExplorationResult",
    "ExplorationStats",
    "Outcome",
    "ParetoFrontier",
    "PoolStats",
    "STRATEGIES",
    "SearchContext",
    "SearchStrategy",
    "WorkerPool",
    "chunk_count",
    "evaluate_branch",
    "evaluate_chunk",
    "explore",
    "make_strategy",
    "weighted_sum",
]
