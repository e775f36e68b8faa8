"""Design-space pruning: filtering cores by decisions and requirements.

Each design decision made during conceptual design corresponds to a
pruning of the component's design space: "the reusable designs that fall
outside the selected region ... are immediately eliminated from
consideration" (paper Sec 1).  This module implements that filter,
independent of session mechanics so it can be unit-tested and reused by
the benchmarks.
"""

from __future__ import annotations

import enum
import hashlib
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.designobject import DesignObject
from repro.core.properties import Requirement


def names_digest(names: Sequence[str]) -> str:
    """Order-sensitive fingerprint of a core-name sequence.

    Used by the observability layer to record (and later verify, on
    replay) *which* cores survived a pruning pass without embedding the
    whole name list in every trace event.
    """
    joined = "\x00".join(names)
    return hashlib.sha1(joined.encode("utf-8")).hexdigest()[:16]


class MissingPolicy(enum.Enum):
    """How to treat a core that does not document a decided property.

    ``EXCLUDE`` (default) mirrors the paper's indexing discipline: cores
    are positioned in the space via design-issue values, so an
    undocumented value means the core is not in the selected region.
    ``INCLUDE`` keeps under-documented cores visible — useful when a
    library is being migrated into the layer.
    """

    EXCLUDE = "exclude"
    INCLUDE = "include"


class PruneReport:
    """Outcome of one filtering pass, for reporting and benchmarks.

    ``eliminated`` (core name -> human-readable reason) may be supplied
    eagerly, or as ``eliminated_factory`` — a thunk the indexed prune
    path uses to defer reason reconstruction until :attr:`eliminated`
    is actually read (most queries only need the survivors).
    """

    def __init__(self, survivors: List[DesignObject],
                 eliminated: Optional[Dict[str, str]] = None,
                 eliminated_factory: Optional[Callable[[], Dict[str, str]]] = None):
        self.survivors = survivors
        self._eliminated = eliminated if eliminated is not None else (
            None if eliminated_factory is not None else {})
        self._eliminated_factory = eliminated_factory
        self._digest: Optional[str] = None

    @property
    def eliminated(self) -> Dict[str, str]:
        if self._eliminated is None:
            assert self._eliminated_factory is not None
            self._eliminated = self._eliminated_factory()
        return self._eliminated

    @property
    def survivor_names(self) -> List[str]:
        return [core.name for core in self.survivors]

    def digest(self) -> str:
        """Fingerprint of the surviving-core names (order-sensitive):
        :func:`names_digest` of :attr:`survivor_names`.

        Memoized: the survivor list never changes after construction.
        :class:`~repro.core.index.IndexedPruneReport` overrides it with
        a digest of its survivor mask, which names no survivor."""
        if self._digest is None:
            self._digest = names_digest(self.survivor_names)
        return self._digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lazy = "" if self._eliminated is not None else " (reasons pending)"
        return f"<PruneReport {len(self.survivors)} survivors{lazy}>"


def _match_decision(core: DesignObject, name: str, option: object,
                    policy: MissingPolicy) -> Optional[str]:
    """None if the core complies with the decision, else the reason."""
    if not core.has_property(name):
        if policy is MissingPolicy.INCLUDE:
            return None
        return f"does not document decided issue {name!r}"
    value = core.property_value(name)
    if value != option:
        return f"{name}={value!r} (decision: {option!r})"
    return None


def _match_requirement(core: DesignObject, req: Requirement, required: object,
                       policy: MissingPolicy) -> Optional[str]:
    """None if the core satisfies the requirement value, else the reason.

    Requirement satisfaction checks both the core's documented property
    value (a capability, e.g. supported EOL) and — for MAX/MIN senses —
    the matching figure of merit when the property is absent but a merit
    with the same name exists (e.g. a latency requirement against a
    measured latency merit).

    Unlike design issues, an *undocumented* requirement never eliminates
    a core regardless of policy: cores are positioned in the design
    space through their design-issue values; requirement properties they
    do not document simply do not constrain them (e.g. a Brickell core
    carries no ModuloIsOdd property because it works either way).
    """
    if core.has_property(req.name):
        if req.satisfied_by(core.property_value(req.name), required):
            return None
        return (f"{req.name}={core.property_value(req.name)!r} fails "
                f"required {required!r} ({req.sense.value})")
    if core.has_merit(req.name):
        if req.satisfied_by(core.merit(req.name), required):
            return None
        return (f"{req.name}={core.merit(req.name):g} fails required "
                f"{required!r} ({req.sense.value})")
    return None


def prune(cores: Sequence[DesignObject],
          decisions: Mapping[str, object],
          requirements: Sequence[Tuple[Requirement, object]] = (),
          policy: MissingPolicy = MissingPolicy.EXCLUDE) -> PruneReport:
    """Filter ``cores`` down to those complying with every decision and
    requirement value.

    ``decisions`` maps design-issue names to the chosen option;
    ``requirements`` pairs requirement schemata with the designer-entered
    values.
    """
    survivors: List[DesignObject] = []
    eliminated: Dict[str, str] = {}
    for core in cores:
        reason = None
        for name, option in decisions.items():
            reason = _match_decision(core, name, option, policy)
            if reason:
                break
        if reason is None:
            for req, value in requirements:
                reason = _match_requirement(core, req, value, policy)
                if reason:
                    break
        if reason is None:
            survivors.append(core)
        else:
            eliminated[core.name] = reason
    return PruneReport(survivors=survivors, eliminated=eliminated)


def merit_ranges(cores: Sequence[DesignObject], metrics: Sequence[str]
                 ) -> Dict[str, Tuple[float, float]]:
    """Min/max of each metric over the cores that document it.

    This is the "critical information on the set of reusable designs that
    do comply with the decision, including ranges of performance and power
    consumption" the paper surfaces after every pruning step.  Metrics no
    surviving core documents are omitted.
    """
    ranges: Dict[str, Tuple[float, float]] = {}
    for metric in metrics:
        values = [core.merit(metric) for core in cores if core.has_merit(metric)]
        if values:
            ranges[metric] = (min(values), max(values))
    return ranges


def merit_bounds(ranges: Mapping[str, Tuple[float, float]],
                 metrics: Sequence[str]) -> Tuple[float, ...]:
    """Optimistic per-metric lower bounds of a design-space region.

    Given the min/max merit ranges of the cores surviving inside a
    region (as reported by :func:`merit_ranges` or the indexed
    ``merit_ranges_for``), returns the vector of minima in ``metrics``
    order — the best value any core in the region could still achieve.
    Metrics no surviving core documents are unbounded below only in
    theory; for dominance bounding we treat them as ``inf`` (worst),
    matching the frontier's missing-merit coordinates, so a region is
    never pruned for a metric nothing in it documents.

    Because every further decision only shrinks the surviving set, these
    minima are valid optimistic bounds for branch-and-bound: no terminal
    outcome under the region can beat them.
    """
    return tuple(ranges[m][0] if m in ranges else math.inf for m in metrics)


def option_support(cores: Sequence[DesignObject], issue_name: str
                   ) -> Dict[object, int]:
    """How many cores realize each option of a design issue — lets the
    designer see which regions of the space are populated."""
    support: Dict[object, int] = {}
    for core in cores:
        if core.has_property(issue_name):
            option = core.property_value(issue_name)
            support[option] = support.get(option, 0) + 1
    return support
