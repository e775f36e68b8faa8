"""Design objects — points in the design space (reusable cores).

A design object is a concrete, reusable design residing in a reuse
library: a hard/soft/firm core, or a software routine plus the processor
it runs on (paper Sec 2).  The design space layer indexes it under a CDO
and characterizes it with:

* **property values** — the option the core realizes for each design
  issue and the problem givens it supports (its position in the space);
* **figures of merit** — measured/estimated area, latency, clock period,
  power, ... used by the evaluation space (Figs 9/12);
* **views** — detailed design data per level of abstraction (the boxes of
  Fig 2(b)); the layer stores them opaquely, as payload references.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import LibraryError

#: Conventional figure-of-merit keys used across the repository.  Layers
#: may add their own; these names keep benchmarks and reports consistent.
AREA = "area"                      # equivalent-gate area (dimensionless)
LATENCY_NS = "latency_ns"          # single-operation latency
CLOCK_NS = "clock_ns"              # clock period (hardware cores)
CYCLES = "cycles"                  # latency in clock cycles
DELAY_US = "delay_us"              # single-operation latency, microseconds
POWER_MW = "power_mw"              # average power (extension FoM)
THROUGHPUT_OPS = "throughput_ops"  # operations per second

#: The abstraction levels of Fig 2(b).
LEVELS = ("algorithm", "rt", "logic", "physical")


class DesignObject:
    """A reusable design (core) indexed by the design space layer."""

    def __init__(self, name: str, cdo_name: str,
                 properties: Optional[Mapping[str, object]] = None,
                 merits: Optional[Mapping[str, float]] = None,
                 doc: str = "",
                 views: Optional[Mapping[str, object]] = None,
                 provenance: str = ""):
        if not name:
            raise LibraryError("design object name must be non-empty")
        if not cdo_name:
            raise LibraryError(f"design object {name!r} needs a CDO name")
        #: Reuse libraries holding this core; notified on every
        #: characterization change, which they push on to their
        #: federations, so epoch-cached queries never serve a stale
        #: position in the design space.
        self._watchers: list = []
        self.name = name
        #: Qualified name of the (typically leaf) CDO the core belongs to.
        self.cdo_name = cdo_name
        self._properties: Dict[str, object] = dict(properties or {})
        self._merits: Dict[str, float] = {}
        for key, value in (merits or {}).items():
            self.set_merit(key, value)
        self.doc = doc
        self._views: Dict[str, object] = dict(views or {})
        for level in self._views:
            if level not in LEVELS:
                raise LibraryError(
                    f"design object {name!r}: unknown view level {level!r}; "
                    f"expected one of {LEVELS}")
        #: Which reuse library / flow produced this core (Fig 1's A/B/C).
        self.provenance = provenance

    # ------------------------------------------------------------------
    # property values (position in the design space)
    # ------------------------------------------------------------------
    def property_value(self, name: str, default: object = None) -> object:
        return self._properties.get(name, default)

    def has_property(self, name: str) -> bool:
        return name in self._properties

    def _touch(self) -> None:
        for watcher in self._watchers:
            watcher._bump()

    def set_property(self, name: str, value: object) -> None:
        self._properties[name] = value
        self._touch()

    @property
    def properties(self) -> Mapping[str, object]:
        return dict(self._properties)

    # ------------------------------------------------------------------
    # figures of merit (position in the evaluation space)
    # ------------------------------------------------------------------
    def merit(self, key: str) -> float:
        try:
            return self._merits[key]
        except KeyError:
            raise LibraryError(
                f"design object {self.name!r} has no figure of merit {key!r}; "
                f"available: {sorted(self._merits)}") from None

    def merit_or_none(self, key: str) -> Optional[float]:
        return self._merits.get(key)

    def has_merit(self, key: str) -> bool:
        return key in self._merits

    def set_merit(self, key: str, value: float) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise LibraryError(
                f"figure of merit {key!r} must be numeric, got {value!r}")
        self._merits[key] = float(value)
        self._touch()

    @property
    def merits(self) -> Mapping[str, float]:
        return dict(self._merits)

    # ------------------------------------------------------------------
    # views (detailed design data, Fig 2(b))
    # ------------------------------------------------------------------
    def view(self, level: str) -> object:
        try:
            return self._views[level]
        except KeyError:
            raise LibraryError(
                f"design object {self.name!r} has no {level!r} view") from None

    def has_view(self, level: str) -> bool:
        return level in self._views

    def set_view(self, level: str, payload: object) -> None:
        if level not in LEVELS:
            raise LibraryError(f"unknown view level {level!r}")
        self._views[level] = payload
        self._touch()

    @property
    def view_levels(self) -> Sequence[str]:
        return tuple(level for level in LEVELS if level in self._views)

    # ------------------------------------------------------------------
    def evaluation_point(self, metrics: Sequence[str]) -> Tuple[float, ...]:
        """Coordinates of the core in the evaluation space spanned by
        ``metrics`` (raises if any metric is missing)."""
        return tuple(self.merit(m) for m in metrics)

    def describe(self) -> str:
        merits = ", ".join(f"{k}={v:g}" for k, v in sorted(self._merits.items()))
        props = ", ".join(f"{k}={v}" for k, v in sorted(self._properties.items(),
                                                        key=lambda kv: kv[0]))
        return (f"{self.name} [{self.cdo_name}] {{{props}}} ({merits})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DesignObject {self.name} @ {self.cdo_name}>"
