"""Public stress-testing library: randomized design-space scenarios.

Every subsystem in this repo — indexed pruning, exploration strategies,
the serving stack — is correctness-tested against *randomized* layer
shapes, not just the hand-built crypto/idct domains.  The generators
lived as private helpers inside individual test files; this package
promotes them (ROADMAP: "randomized-hierarchy
scenario generator promoted from test helpers to a public stress
library") so new subsystems, benchmarks, and downstream users can
exercise diverse hierarchies with one import::

    from repro.testing import random_hierarchy_layer
    layer = random_hierarchy_layer(seed=7)

All generators are deterministic in their seed.
"""

from repro.testing.stress import (
    dominance_gradient_layer,
    random_core_population_layer,
    random_exploration_problem,
    random_hierarchy_layer,
)

__all__ = [
    "dominance_gradient_layer",
    "random_core_population_layer",
    "random_exploration_problem",
    "random_hierarchy_layer",
]
