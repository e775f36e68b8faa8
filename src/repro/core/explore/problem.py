"""Exploration problems: what to search, over which layer.

An :class:`ExplorationProblem` is the declarative input to the
:class:`~repro.core.explore.engine.ExplorationEngine`: a start position,
the metrics to optimize, requirement values from the system
specification, an optional pre-applied decision prefix, and a layer
instance or a ``layer_factory`` that builds one on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from repro.core.layer import DesignSpaceLayer
from repro.core.pruning import MissingPolicy
from repro.core.session import ExplorationSession
from repro.errors import ExplorationError

#: An estimator maps a terminal session (empty surviving set) to
#: estimated figures of merit — the paper's fallback of invoking early
#: estimation tools on the conceptual design when no reusable core fits.
Estimator = Callable[[ExplorationSession], Mapping[str, float]]

Bindings = Union[Mapping[str, object], Sequence[Tuple[str, object]]]


def _pairs(bindings: Bindings) -> Tuple[Tuple[str, object], ...]:
    if isinstance(bindings, Mapping):
        return tuple(bindings.items())
    return tuple((str(name), value) for name, value in bindings)


@dataclass
class ExplorationProblem:
    """Declarative description of one automated search.

    ``issues`` optionally fixes which design issues to address, in
    order; without it every addressable issue is explored.  ``decisions``
    is a prefix applied before the search starts.
    """

    start: str
    metrics: Tuple[str, ...] = ("area", "latency_ns")
    requirements: Bindings = ()
    decisions: Bindings = ()
    issues: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    option_limit: int = 16
    missing_policy: MissingPolicy = MissingPolicy.EXCLUDE
    layer: Optional[DesignSpaceLayer] = None
    layer_factory: Optional[Callable[[], DesignSpaceLayer]] = None
    estimator: Optional[Estimator] = None
    #: Verifier pre-pruning mask: ``(cdo_qualified_name, issue, repr(option))``
    #: triples proved dead by :meth:`DesignSpaceLayer.verify` (see
    #: :meth:`~repro.core.verify.engine.VerifyAnalysis.prune_mask`).
    #: Strategies skip masked options without opening a branch; because
    #: the proofs are sound, the frontier is unchanged.
    dead_mask: Optional[frozenset] = None
    _built: Optional[DesignSpaceLayer] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.metrics = tuple(self.metrics)
        self.requirements = _pairs(self.requirements)
        self.decisions = _pairs(self.decisions)
        if self.issues is not None:
            self.issues = tuple(self.issues)
        if self.dead_mask is not None:
            self.dead_mask = frozenset(self.dead_mask)

    # ------------------------------------------------------------------
    def resolve_layer(self) -> DesignSpaceLayer:
        """The layer to search: the given instance, or the factory's
        product (built once and cached on this problem)."""
        if self.layer is not None:
            return self.layer
        if self._built is not None:
            return self._built
        if self.layer_factory is None:
            raise ExplorationError(
                "exploration problem needs a layer or a layer_factory")
        self._built = self.layer_factory()
        return self._built

    def open_session(self, layer: Optional[DesignSpaceLayer] = None
                     ) -> ExplorationSession:
        """A fresh session at ``start`` with the problem's requirement
        values entered and the decision prefix applied.

        Raises whatever :meth:`ExplorationSession.decide` raises when the
        prefix is infeasible (``ConstraintViolation`` / ``SessionError``)
        — callers treat that as a pruned branch.
        """
        if layer is None:
            layer = self.resolve_layer()
        session = ExplorationSession(
            layer, self.start, merit_metrics=self.metrics,
            missing_policy=self.missing_policy)
        for name, value in self.requirements:
            session.set_requirement(name, value)
        for name, option in self.decisions:
            session.decide(name, option)
        return session

    def with_prefix(self, *extra: Tuple[str, object]) -> "ExplorationProblem":
        """A copy whose decision prefix is extended by ``extra`` — one
        branch of this problem."""
        return replace(self, decisions=self.decisions + tuple(extra),
                       _built=None)
