"""Ready-made exploration problems for the cryptography layer.

:func:`crypto_exploration_problem` packages the paper's Sec 5 case study
as an :class:`~repro.core.explore.problem.ExplorationProblem`: the five
Fig 8 requirement values, the modular-multiplier subtree as the start
position, and the decision sequence the paper's designer walks manually
(implementation style, algorithm, adder implementation, slice width).
Running it with any exact strategy reproduces — and ranks — every
surviving-core set the manual walk in ``examples/crypto_coprocessor.py``
could have reached.

:func:`conceptual_estimator` is the paper's fallback for empty surviving
sets: it invokes the layer's registered early-estimation tools on the
algorithm's behavioral description to produce estimated figures of
merit for the conceptual design.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence, Tuple

from repro.core.explore.problem import ExplorationProblem
from repro.core.layer import DesignSpaceLayer
from repro.core.session import ExplorationSession
from repro.domains.crypto import vocab as v
from repro.domains.crypto.layer import build_crypto_layer
from repro.estimation.tools import AREA_TOOL, DELAY_TOOL

#: The decision sequence of the paper's case study (Sec 5 / Fig 11).
CASE_STUDY_ISSUES: Tuple[str, ...] = (
    v.IMPLEMENTATION_STYLE, v.ALGORITHM, v.ADDER_IMPL, v.SLICE_WIDTH)

#: Nanoseconds per estimated combinational gate level (matches the
#: rough technology assumption of the delay estimator's unit model).
_NS_PER_LEVEL = 0.5


def case_study_requirements(eol: int = 768, latency_us: float = 8.0
                            ) -> Dict[str, object]:
    """The five requirement values of paper Fig 8."""
    return {
        v.EOL: eol,
        v.OPERAND_CODING: v.CODING_2SC,
        v.RESULT_CODING: v.CODING_REDUNDANT,
        v.MODULO_IS_ODD: v.GUARANTEED,
        v.LATENCY_US: latency_us,
    }


def conceptual_estimator(session: ExplorationSession) -> Dict[str, float]:
    """Estimated merits for a terminal position with no surviving core.

    Invokes the layer's registered area/delay estimation tools on the
    behavioral description visible from the session's position (the
    Montgomery and Brickell CDOs each carry one); positions without a
    description or tools fall back to a closed-form unit-gate model so
    the estimator never leaves a branch unassessed.
    """
    layer = session.layer
    context = session.context()
    eol = context.get(v.EOL, 768)
    eol = int(eol) if isinstance(eol, (int, float)) else 768
    behavior = None
    try:
        prop = session.current_cdo.find_property(v.BEHAVIORAL_DESCRIPTION)
        behavior = getattr(prop, "description", None)
    except Exception:
        behavior = None
    tools = layer.tools
    if behavior is not None and AREA_TOOL in tools and DELAY_TOOL in tools:
        bindings = {"B": behavior, "EOL": eol}
        area = float(tools[AREA_TOOL](bindings))
        levels = float(tools[DELAY_TOOL](bindings))
        # One pass of the combinational datapath per operand bit.
        return {"area": area, "latency_ns": _NS_PER_LEVEL * levels * eol}
    width = context.get(v.SLICE_WIDTH, eol)
    width = int(width) if isinstance(width, (int, float)) and width else eol
    slices = max(1, eol // max(1, width))
    return {"area": 600.0 * width + 150.0 * eol,
            "latency_ns": 3.0 * eol * slices}


def crypto_exploration_problem(
        layer: Optional[DesignSpaceLayer] = None,
        eol: int = 768, latency_us: float = 8.0,
        metrics: Sequence[str] = ("area", "latency_ns"),
        issues: Optional[Sequence[str]] = CASE_STUDY_ISSUES,
        with_estimator: bool = False) -> ExplorationProblem:
    """The Sec 5 case study as an automated exploration problem.

    Without ``layer`` the problem carries a factory
    (``functools.partial(build_crypto_layer, eol)``) that builds the
    layer on first use.
    ``with_estimator`` enables the conceptual-design fallback; note that
    branch-and-bound then disables bound pruning to stay exact.
    """
    return ExplorationProblem(
        start=v.OMM_PATH,
        metrics=tuple(metrics),
        requirements=case_study_requirements(eol, latency_us),
        issues=tuple(issues) if issues is not None else None,
        layer=layer,
        layer_factory=(functools.partial(build_crypto_layer, eol)
                       if layer is None else None),
        estimator=conceptual_estimator if with_estimator else None)
