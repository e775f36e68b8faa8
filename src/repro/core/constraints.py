"""Consistency constraints (paper Sec 4, Fig 13).

A consistency constraint (CC) is defined by an **independent set** of
properties, a **dependent set** of properties, and a **relation**.  The
dependent set can only be addressed by the designer after the independent
set has been addressed, and must be re-assessed whenever an independent
changes.  CCs therefore serve three purposes at once (all exercised by
the crypto case study):

* consistency between design options / requirements (CC1);
* partial ordering of design issues by impact (the independent/dependent
  split *is* the ordering);
* the utilization context of early estimation tools (CC3) and the
  elimination of dominated options (CC4).

Property references in the independent/dependent sets are written in the
paper's path notation (:mod:`repro.core.path`).  For references the path
language cannot express (e.g. CC4's reach into a behavioral
decomposition), a :class:`SessionBinding` escape hatch binds the alias
with a function of the exploration session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.core.cdo import ClassOfDesignObjects
from repro.core.path import PropertyPath, parse_path
from repro.core.relations import Relation
from repro.errors import ConstraintError


@dataclass(frozen=True)
class SessionBinding:
    """Bind an alias from the exploration session directly.

    ``fn(session)`` returns the value, or :data:`UNBOUND` when the
    information the binding needs is not available yet.  ``doc`` keeps the
    constraint self-documented.
    """

    fn: Callable[[object], object]
    doc: str
    #: Pattern of the CDO(s) on which this binding becomes meaningful;
    #: empty means "anywhere".
    pattern: str = ""


class _Unbound:
    """Sentinel for 'no value yet'."""

    def __repr__(self) -> str:
        return "UNBOUND"


UNBOUND = _Unbound()

Ref = Union[str, PropertyPath, SessionBinding]


def _normalize_refs(refs: Mapping[str, Ref]) -> Dict[str, Union[PropertyPath, SessionBinding]]:
    out: Dict[str, Union[PropertyPath, SessionBinding]] = {}
    for alias, ref in refs.items():
        if isinstance(ref, str):
            out[alias] = parse_path(ref)
        elif isinstance(ref, (PropertyPath, SessionBinding)):
            out[alias] = ref
        else:
            raise ConstraintError(
                f"alias {alias!r}: expected a path or SessionBinding, "
                f"got {type(ref).__name__}")
    return out


class ConsistencyConstraint:
    """A named CC tying independents to dependents through a relation."""

    def __init__(self, name: str, doc: str,
                 independents: Mapping[str, Ref],
                 dependents: Mapping[str, Ref],
                 relation: Relation,
                 shorts: Optional[Mapping[str, Ref]] = None):
        if not name:
            raise ConstraintError("constraint name must be non-empty")
        if not doc:
            raise ConstraintError(f"constraint {name!r} needs a doc string")
        self.name = name
        self.doc = doc
        self.independents = _normalize_refs(independents)
        self.dependents = _normalize_refs(dependents)
        #: Named sub-expressions (the paper's ``Shorts={...}``), resolved
        #: like independents and exposed to the relation under their alias.
        self.shorts = _normalize_refs(shorts or {})
        self.relation = relation
        overlap = set(self.independents) & set(self.dependents)
        if overlap:
            raise ConstraintError(
                f"constraint {name!r}: aliases {sorted(overlap)} appear in "
                f"both independent and dependent sets")

    # ------------------------------------------------------------------
    def _ref_applies(self, ref: Union[PropertyPath, SessionBinding],
                     cdo: ClassOfDesignObjects,
                     aliases: Mapping[str, str]) -> bool:
        """Whether a single reference is meaningful at ``cdo``.

        Path references apply when their pattern matches the CDO itself or
        one of its ancestors (the property is then visible from ``cdo``
        through inheritance).
        """
        if isinstance(ref, SessionBinding):
            if not ref.pattern:
                return True
            from repro.core.path import parse_pattern
            pattern = parse_path(f"x@{ref.pattern}").expand_aliases(aliases).pattern \
                if aliases else parse_pattern(ref.pattern)
            return any(pattern.matches(node.qualified_name)
                       for node in cdo.path_from_root())
        path = ref.expand_aliases(aliases) if aliases else ref
        return any(path.pattern.matches(node.qualified_name)
                   for node in cdo.path_from_root())

    def applies_to(self, cdo: ClassOfDesignObjects,
                   aliases: Optional[Mapping[str, str]] = None) -> bool:
        """A CC governs an exploration positioned at ``cdo`` when *all* of
        its references are meaningful there.

        CC2 references ``Radix@*.Hardware.Montgomery``; it therefore only
        applies once the exploration has specialized down to the
        Montgomery class — exactly the paper's narrowing behaviour.
        """
        aliases = aliases or {}
        refs = list(self.independents.values()) + list(self.dependents.values())
        refs += list(self.shorts.values())
        return all(self._ref_applies(ref, cdo, aliases) for ref in refs)

    def dependent_property_names(self) -> List[str]:
        """Names of properties whose decision is gated by this CC."""
        out = []
        for ref in self.dependents.values():
            if isinstance(ref, PropertyPath):
                out.append(ref.property_name)
        return out

    def independent_property_names(self) -> List[str]:
        out = []
        for ref in self.independents.values():
            if isinstance(ref, PropertyPath):
                out.append(ref.property_name)
        return out

    def describe(self) -> str:
        def render(refs: Mapping[str, Union[PropertyPath, SessionBinding]]) -> str:
            parts = []
            for alias, ref in refs.items():
                if isinstance(ref, SessionBinding):
                    parts.append(f"{alias}=<session: {ref.doc}>")
                else:
                    parts.append(f"{alias}={ref.render()}")
            return "{" + ", ".join(parts) + "}"

        lines = [f"CC {self.name}: {self.doc}",
                 f"  Indep_Set={render(self.independents)}",
                 f"  Dep_Set={render(self.dependents)}"]
        if self.shorts:
            lines.append(f"  Shorts={render(self.shorts)}")
        lines.append(f"  Relation: {self.relation.description}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConsistencyConstraint {self.name}>"


class ConstraintSet:
    """An ordered, name-indexed collection of CCs belonging to a layer."""

    def __init__(self, constraints: Sequence[ConsistencyConstraint] = ()):
        self._constraints: Dict[str, ConsistencyConstraint] = {}
        #: Layers this set belongs to; every addition is pushed to them.
        self._watchers: list = []
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: ConsistencyConstraint) -> ConsistencyConstraint:
        """Register a constraint; names are unique within the set.

        A rejected duplicate leaves the set untouched — the originally
        registered constraint stays authoritative.
        """
        existing = self._constraints.get(constraint.name)
        if existing is not None:
            raise ConstraintError(
                f"duplicate constraint name {constraint.name!r} (already "
                f"registered: {existing.doc!r}); constraint names are "
                f"unique within a layer")
        self._constraints[constraint.name] = constraint
        self._bump()
        return constraint

    def _bump(self) -> None:
        for watcher in self._watchers:
            watcher._bump()

    def get(self, name: str) -> ConsistencyConstraint:
        try:
            return self._constraints[name]
        except KeyError:
            raise ConstraintError(f"no constraint named {name!r}") from None

    def __iter__(self) -> Iterator[ConsistencyConstraint]:
        """Iterate in a stable order (sorted by constraint name).

        Insertion order would track layer-construction order, which is
        fine for a single build but makes verifier fixpoints and lint
        output depend on how a layer happened to be assembled; sorting
        by the unique name keeps every downstream report deterministic.
        """
        return iter(sorted(self._constraints.values(), key=lambda c: c.name))

    def __len__(self) -> int:
        return len(self._constraints)

    def __contains__(self, name: str) -> bool:
        return name in self._constraints

    def applicable(self, cdo: ClassOfDesignObjects,
                   aliases: Optional[Mapping[str, str]] = None
                   ) -> List[ConsistencyConstraint]:
        return [c for c in self if c.applies_to(cdo, aliases)]
