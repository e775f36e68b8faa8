"""The evaluation space (paper Figs 2(c), 3(b), 9, 12).

Cores map to points in an *evaluation space* spanned by figures of merit
(area, delay, power, ...).  The paper uses this space to argue where
generalization boundaries should fall (clusters with similar achievable
ranges) and to compare algorithm families (Montgomery vs Brickell in
Fig 9).  This module provides the point-set abstraction, Pareto-dominance
analysis and range queries; clustering lives in
:mod:`repro.core.clustering`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import le, lt
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.designobject import DesignObject
from repro.errors import ReproError


@dataclass(frozen=True)
class EvaluationPoint:
    """One design's coordinates in the evaluation space."""

    name: str
    coords: Tuple[float, ...]
    design: Optional[DesignObject] = None

    def distance_to(self, other: "EvaluationPoint",
                    scales: Optional[Sequence[float]] = None) -> float:
        """Euclidean distance, optionally per-axis normalized."""
        if len(self.coords) != len(other.coords):
            raise ReproError("points live in different evaluation spaces")
        total = 0.0
        for i, (a, b) in enumerate(zip(self.coords, other.coords)):
            scale = scales[i] if scales is not None else 1.0
            if scale == 0:
                scale = 1.0
            total += ((a - b) / scale) ** 2
        return math.sqrt(total)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is at least as good as ``b`` on every axis and
    strictly better on at least one (all axes minimized)."""
    if len(a) != len(b):
        raise ReproError("cannot compare points of different dimension")
    return all(map(le, a, b)) and any(map(lt, a, b))


class EvaluationSpace:
    """A point set over named metrics, all treated as minimized.

    Metrics whose larger values are better (e.g. throughput) should be
    negated by the caller before constructing the space; the layer's
    conventional figures of merit (area, latency, power) are all
    cost-like.
    """

    def __init__(self, metrics: Sequence[str],
                 points: Iterable[EvaluationPoint] = ()):
        if not metrics:
            raise ReproError("an evaluation space needs at least one metric")
        self.metrics = tuple(metrics)
        self._points: List[EvaluationPoint] = []
        for point in points:
            self.add(point)

    @classmethod
    def from_designs(cls, designs: Iterable[DesignObject],
                     metrics: Sequence[str],
                     skip_missing: bool = False) -> "EvaluationSpace":
        """Build the space from design objects' figures of merit.

        With ``skip_missing`` designs lacking a metric are silently left
        out (the paper's libraries may hold partially characterized
        cores); otherwise they raise.
        """
        space = cls(metrics)
        for design in designs:
            if skip_missing and not all(design.has_merit(m) for m in metrics):
                continue
            space.add(EvaluationPoint(design.name,
                                      design.evaluation_point(metrics),
                                      design))
        return space

    def add(self, point: EvaluationPoint) -> None:
        if len(point.coords) != len(self.metrics):
            raise ReproError(
                f"point {point.name!r} has {len(point.coords)} coords; "
                f"space has metrics {self.metrics}")
        self._points.append(point)

    @property
    def points(self) -> Sequence[EvaluationPoint]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[EvaluationPoint]:
        return iter(self._points)

    def point(self, name: str) -> EvaluationPoint:
        for p in self._points:
            if p.name == name:
                return p
        raise ReproError(f"no point named {name!r} in evaluation space")

    # ------------------------------------------------------------------
    # analytics
    # ------------------------------------------------------------------
    def ranges(self) -> Dict[str, Tuple[float, float]]:
        """Per-metric (min, max) over all points."""
        out: Dict[str, Tuple[float, float]] = {}
        for i, metric in enumerate(self.metrics):
            values = [p.coords[i] for p in self._points]
            if values:
                out[metric] = (min(values), max(values))
        return out

    def scales(self) -> Tuple[float, ...]:
        """Per-axis spans used for normalized distances (0 span -> 1)."""
        spans = []
        for i in range(len(self.metrics)):
            values = [p.coords[i] for p in self._points]
            span = (max(values) - min(values)) if values else 1.0
            spans.append(span if span > 0 else 1.0)
        return tuple(spans)

    def pareto_frontier(self) -> List[EvaluationPoint]:
        """Non-dominated points, sorted by the first metric.

        Ties (identical coordinates) all survive: they are genuinely
        interchangeable alternatives the designer should see.
        """
        frontier = [p for p in self._points
                    if not any(dominates(q.coords, p.coords)
                               for q in self._points if q is not p)]
        return sorted(frontier, key=lambda p: p.coords)

    def dominated_points(self) -> List[EvaluationPoint]:
        frontier_names = {p.name for p in self.pareto_frontier()}
        return [p for p in self._points if p.name not in frontier_names]

    def best(self, metric: str) -> EvaluationPoint:
        """The point minimizing one metric."""
        index = self._metric_index(metric)
        if not self._points:
            raise ReproError("evaluation space is empty")
        return min(self._points, key=lambda p: p.coords[index])

    def within(self, bounds: Mapping[str, Tuple[Optional[float], Optional[float]]]
               ) -> List[EvaluationPoint]:
        """Points inside per-metric [lo, hi] windows (None = unbounded)."""
        indexed = {self._metric_index(m): (lo, hi)
                   for m, (lo, hi) in bounds.items()}
        out = []
        for point in self._points:
            ok = True
            for i, (lo, hi) in indexed.items():
                if lo is not None and point.coords[i] < lo:
                    ok = False
                    break
                if hi is not None and point.coords[i] > hi:
                    ok = False
                    break
            if ok:
                out.append(point)
        return out

    def _metric_index(self, metric: str) -> int:
        try:
            return self.metrics.index(metric)
        except ValueError:
            raise ReproError(
                f"metric {metric!r} not in space {self.metrics}") from None

    def describe(self) -> str:
        header = " / ".join(self.metrics)
        lines = [f"Evaluation space ({header}), {len(self)} points:"]
        frontier = {p.name for p in self.pareto_frontier()}
        for point in sorted(self._points, key=lambda p: p.coords):
            star = " *" if point.name in frontier else ""
            coords = ", ".join(f"{c:g}" for c in point.coords)
            lines.append(f"  {point.name}: ({coords}){star}")
        lines.append("  (* = Pareto-optimal)")
        return "\n".join(lines)
