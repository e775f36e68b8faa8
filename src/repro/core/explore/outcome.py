"""Terminal outcomes and the Pareto frontier of an exploration run.

An automated search walks the decision tree; every terminal position
yields :class:`Outcome` records — one per surviving core, or one
estimated outcome when the surviving set is empty and the problem
carries an estimator (the paper's conceptual-design path).  The
:class:`ParetoFrontier` collects them and keeps only the non-dominated
set, plus weighted-sum and lexicographic rankings for multi-criteria
comparison (DAVOS-style MCDM).

All metrics are treated as minimized, matching
:mod:`repro.core.evaluation`; outcomes missing a metric sit at ``inf``
on that axis, so a fully characterized outcome can dominate them but
they are never silently dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.core.evaluation import dominates

#: Core name used for outcomes produced by an estimator instead of a
#: surviving reusable core.
ESTIMATED = "(estimated)"


def _render_value(value: object) -> str:
    return repr(value) if isinstance(value, str) else str(value)


def render_path(decisions: Sequence[Tuple[str, object]]) -> str:
    """Canonical rendering of a decision assignment."""
    return ", ".join(f"{name}={_render_value(option)}"
                     for name, option in decisions)


@dataclass(frozen=True, init=False)
class Outcome:
    """One terminal point of the search: a decision path and its merits.

    ``decisions`` is the full (name, option) assignment sorted by issue
    name — the canonical form, independent of the order a strategy
    happened to address the issues in.  ``merits`` carries only the
    problem's metrics the core documents.  ``path_key`` is
    ``render_path(decisions)``: rendered here unless the caller passes
    the rendering it already holds (a terminal renders its assignment
    once for all of its cores).  It is not a field, so ``==``, ``hash``
    and ``repr`` leave it out.

    Slotted: a run's result keeps every frontier member, so an outcome
    carries no per-instance ``__dict__``.  (``dataclass(slots=True)``
    needs Python 3.10, and a slot cannot have a class-level default,
    hence the hand-written ``__init__``.)
    """

    __slots__ = ("decisions", "cdo", "core", "merits", "estimated",
                 "path_key")

    decisions: Tuple[Tuple[str, object], ...]
    cdo: str
    core: str
    merits: Tuple[Tuple[str, float], ...]
    estimated: bool
    if TYPE_CHECKING:  # a slot, not a field
        path_key: str

    def __init__(self, decisions: Tuple[Tuple[str, object], ...], cdo: str,
                 core: str, merits: Tuple[Tuple[str, float], ...],
                 estimated: bool = False, path_key: str = ""):
        init = object.__setattr__
        init(self, "decisions", decisions)
        init(self, "cdo", cdo)
        init(self, "core", core)
        init(self, "merits", merits)
        init(self, "estimated", estimated)
        init(self, "path_key", path_key or render_path(decisions))

    def __reduce__(self):
        # The default slot-state restore assigns attributes, which a
        # frozen class refuses.
        return Outcome, (self.decisions, self.cdo, self.core, self.merits,
                         self.estimated, self.path_key)

    @property
    def key(self) -> Tuple[str, str]:
        """Dedup key: the same core reached via the same assignment is
        one outcome no matter how many times a strategy revisits it."""
        return (self.path_key, self.core)

    def merit_map(self) -> Dict[str, float]:
        return dict(self.merits)

    def coords(self, metrics: Sequence[str]) -> Tuple[float, ...]:
        """Coordinates in the (minimized) evaluation space; metrics this
        outcome does not document sit at ``inf`` (worst)."""
        merits = dict(self.merits)
        return tuple(merits.get(m, math.inf) for m in metrics)

    def to_dict(self) -> Dict[str, object]:
        return {
            "decisions": [[name, option] for name, option in self.decisions],
            "cdo": self.cdo,
            "core": self.core,
            "merits": {name: value for name, value in self.merits},
            "estimated": self.estimated,
        }

    def describe(self) -> str:
        merits = " ".join(f"{name}={value:g}" for name, value in self.merits)
        tag = " [estimated]" if self.estimated else ""
        return f"{self.core}{tag}: {merits or 'no merits'} <- {self.path_key}"


def weighted_sum(coords: Sequence[float],
                 weights: Optional[Sequence[float]] = None) -> float:
    """Scalarize a coordinate vector; ``inf`` coordinates stay ``inf``."""
    total = 0.0
    for i, value in enumerate(coords):
        weight = weights[i] if weights is not None else 1.0
        if math.isinf(value):
            return math.inf
        total += weight * value
    return total


class ParetoFrontier:
    """The non-dominated set of outcomes over fixed metrics.

    Ties are kept: an outcome is rejected only when an existing member
    *strictly* dominates it (better somewhere, no worse anywhere), and
    members are evicted only when the newcomer strictly dominates them.
    That matches :meth:`EvaluationSpace.pareto_frontier` and is what
    makes branch-and-bound provably return the same frontier as
    exhaustive enumeration.
    """

    def __init__(self, metrics: Sequence[str]):
        if not metrics:
            raise ValueError("a frontier needs at least one metric")
        self.metrics: Tuple[str, ...] = tuple(metrics)
        #: Members in the order they joined, each under its core name, or
        #: under its full key when another member holds that name.  A
        #: kept result holds its members, so a name saves a key tuple,
        #: and the rare eviction scan and the sorts recompute a member's
        #: coordinates instead of keeping them.
        self._members: Dict[object, Outcome] = {}
        #: Members per distinct coordinate tuple.  A frontier keeps ties,
        #: so it holds far fewer points than members, and dominance
        #: depends on the point alone.
        self._points: Dict[Tuple[float, ...], int] = {}

    def __len__(self) -> int:
        return len(self._members)

    def _member(self, key: Tuple[str, str]) -> Optional[Outcome]:
        """The member with this key, or None."""
        path_key, core = key
        member = self._members.get(core)
        if member is not None and member.path_key == path_key:
            return member
        return self._members.get(key)

    def __contains__(self, outcome: Outcome) -> bool:
        """True when a member equals ``outcome``, not merely shares its
        key (two cores of one name reached by one path share a key)."""
        member = self._member(outcome.key)
        return member is not None and member == outcome

    def rejects(self, key: Tuple[str, str],
                coords: Sequence[float]) -> bool:
        """True when :meth:`add` would turn away an outcome with this
        ``key`` and these ``coords``: a duplicate key, or a member
        strictly dominates it.

        Callers holding many candidates screen them here first and build
        an :class:`Outcome` only for the few the frontier would accept;
        a rejected :meth:`add` changes nothing, so skipping it is exact.
        """
        if self._member(key) is not None:
            return True
        return any(dominates(point, coords) for point in self._points)

    def add(self, outcome: Outcome,
            coords: Optional[Tuple[float, ...]] = None) -> bool:
        """Offer an outcome; True when it joined the frontier.

        Duplicates (same decision assignment and core) are ignored;
        dominated newcomers are rejected; members the newcomer strictly
        dominates are evicted.  ``coords`` is ``outcome.coords(metrics)``
        when the caller already holds it.
        """
        key = outcome.key
        if coords is None:
            coords = outcome.coords(self.metrics)
        if self.rejects(key, coords):
            return False
        points = self._points
        members = self._members
        if any(dominates(coords, point) for point in points):
            # Rebuilt, not deleted from: a kept result holds its frontier,
            # and a dict never shrinks.
            self._points = points = {
                point: count for point, count in points.items()
                if not dominates(coords, point)}
            for k in [k for k, member in members.items()
                      if dominates(coords, member.coords(self.metrics))]:
                del members[k]
        members[key if outcome.core in members else outcome.core] = outcome
        points[coords] = points.get(coords, 0) + 1
        return True

    def dominates_bound(self, bound: Sequence[float]) -> bool:
        """True when some member strictly dominates an *optimistic* bound
        vector — every terminal outcome under the bounded region is then
        strictly dominated too, so the region can be pruned without
        losing any frontier member (ties included)."""
        bound = tuple(bound)
        return any(dominates(point, bound) for point in self._points)

    def entries(self) -> List[Tuple[Tuple[str, str], Tuple[float, ...],
                                    Outcome]]:
        """Members as ``(key, coords, outcome)``, in the order they
        joined."""
        metrics = self.metrics
        return [(outcome.key, outcome.coords(metrics), outcome)
                for outcome in self._members.values()]

    def outcomes(self) -> List[Outcome]:
        """Members in a canonical, insertion-order-independent order:
        sorted by coordinates, then core name, then decision path."""
        return [outcome for _, _, outcome in sorted(
            self.entries(),
            key=lambda entry: (entry[1], entry[2].core, entry[2].path_key))]

    # ------------------------------------------------------------------
    # rankings
    # ------------------------------------------------------------------
    def weighted_ranking(self, weights: Optional[Mapping[str, float]] = None
                         ) -> List[Tuple[float, Outcome]]:
        """Members scored by a weighted sum (ascending; all minimized).

        ``weights`` maps metric name to weight; missing metrics weigh 1.
        """
        vector = tuple((weights or {}).get(m, 1.0) for m in self.metrics)
        scored = [(weighted_sum(coords, vector), coords, outcome)
                  for _, coords, outcome in self.entries()]
        scored.sort(key=lambda item: (item[0], item[1], item[2].core,
                                      item[2].path_key))
        return [(score, outcome) for score, _, outcome in scored]

    def lexicographic_ranking(self, order: Optional[Sequence[str]] = None
                              ) -> List[Outcome]:
        """Members ordered by one metric, ties broken by the next.

        ``order`` lists metric names by priority (default: the
        frontier's metric order).  Unknown metrics raise ``KeyError``.
        """
        priorities = tuple(order) if order is not None else self.metrics
        for metric in priorities:
            if metric not in self.metrics:
                raise KeyError(f"unknown metric {metric!r}; frontier tracks "
                               f"{list(self.metrics)}")
        def sort_key(outcome: Outcome):
            merits = outcome.merit_map()
            return (tuple(merits.get(m, math.inf) for m in priorities),
                    outcome.core, outcome.path_key)
        return sorted(self._members.values(), key=sort_key)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "metrics": list(self.metrics),
            "outcomes": [o.to_dict() for o in self.outcomes()],
        }

    def digest(self) -> str:
        """Order-independent fingerprint of the frontier: identical
        digests mean byte-identical frontiers (used by the determinism
        tests and the benchmarks)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]

    def render_text(self, limit: int = 10) -> str:
        lines = [f"Pareto frontier over ({', '.join(self.metrics)}): "
                 f"{len(self)} non-dominated outcome(s)"]
        members = self.outcomes()
        for outcome in members[:limit]:
            lines.append(f"  {outcome.describe()}")
        if len(members) > limit:
            lines.append(f"  ... {len(members) - limit} more")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ParetoFrontier {len(self)} over {self.metrics}>"
