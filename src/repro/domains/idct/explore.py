"""Ready-made exploration problem for the IDCT layer.

The Sec 2 motivating example as an automated search: find the
non-dominated IDCT cores for a required block size, over every
addressable design issue of the Fig 3 generalization hierarchy
(implementation style, fabrication technology, algorithm, MAC units,
layout style / platform, language).
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from repro.core.explore.problem import ExplorationProblem
from repro.core.layer import DesignSpaceLayer
from repro.domains.idct.cores import BLOCK_SIZE
from repro.domains.idct.layer import build_idct_layer


def idct_exploration_problem(
        layer: Optional[DesignSpaceLayer] = None,
        block_size: int = 8,
        metrics: Sequence[str] = ("area", "latency_ns"),
        max_depth: Optional[int] = None) -> ExplorationProblem:
    """Search the IDCT layer for non-dominated cores of one block size."""
    return ExplorationProblem(
        start="IDCT",
        metrics=tuple(metrics),
        requirements={BLOCK_SIZE: block_size},
        max_depth=max_depth,
        layer=layer,
        layer_factory=(functools.partial(build_idct_layer, block_size)
                       if layer is None else None))
