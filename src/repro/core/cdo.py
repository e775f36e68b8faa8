"""Classes of design objects (CDOs) and their specialization hierarchy.

A CDO implicitly defines the design space of all feasible implementations
of some behaviour (paper Sec 2).  CDOs form a generalization/specialization
hierarchy: a CDO may carry **at most one generalized design issue**, and
each option of that issue defines a child CDO — a design space region
contained within the parent's region.  CDOs without a generalized issue
are leaves (paper Sec 4).

Properties attach to the CDO where they first become meaningful and are
inherited by every descendant (the paper's "because of the inheritance
hierarchy, the properties may be part of the CDO in question or of any of
its ancestor classes").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.properties import (
    BehavioralDescription,
    DesignIssue,
    Property,
    Requirement,
)
from repro.errors import HierarchyError, PropertyError, ReproError

#: Separator for qualified CDO names ("Operator.Modular.Multiplier.Hardware").
QNAME_SEP = "."


def _check_cdo_name(name: str) -> str:
    if not name:
        raise HierarchyError("CDO name must be non-empty")
    forbidden = set(name) & set("@*(){}, \t\n" + QNAME_SEP)
    if forbidden:
        raise HierarchyError(
            f"CDO name {name!r} contains reserved characters {sorted(forbidden)!r}")
    return name


class ClassOfDesignObjects:
    """A node of the generalization/specialization hierarchy.

    Instances are created either as roots (``parent=None``) or through
    :meth:`specialize`, which ties the child to an option of the parent's
    generalized design issue.
    """

    def __init__(self, name: str, doc: str,
                 parent: Optional["ClassOfDesignObjects"] = None,
                 option_of_parent: object = None):
        self.name = _check_cdo_name(name)
        if not doc:
            raise HierarchyError(f"CDO {name!r} needs a documentation string")
        self.doc = doc
        self.parent = parent
        #: Dotted path from the root, e.g. ``Operator.Modular.Multiplier``;
        #: fixed here, since no CDO is renamed or re-parented.
        self.qualified_name = (self.name if parent is None else
                               parent.qualified_name + QNAME_SEP + self.name)
        #: Which option of the parent's generalized issue this class refines.
        self.option_of_parent = option_of_parent
        self._children: Dict[object, "ClassOfDesignObjects"] = {}
        self._properties: Dict[str, Property] = {}
        self._generalized_issue: Optional[DesignIssue] = None
        #: Layers this CDO is a root of; a property or child gained
        #: anywhere in the sub-hierarchy is pushed to them.
        self._watchers: list = []

    def _touch_structure(self) -> None:
        root = self
        while root.parent is not None:
            root = root.parent
        for watcher in root._watchers:
            watcher._bump()

    # ------------------------------------------------------------------
    # identity and navigation
    # ------------------------------------------------------------------
    def path_from_root(self) -> List["ClassOfDesignObjects"]:
        """Root-first chain of CDOs ending at ``self``."""
        chain: List[ClassOfDesignObjects] = []
        node: Optional[ClassOfDesignObjects] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    def ancestors(self) -> List["ClassOfDesignObjects"]:
        """Proper ancestors, nearest first."""
        out: List[ClassOfDesignObjects] = []
        node = self.parent
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    @property
    def children(self) -> Sequence["ClassOfDesignObjects"]:
        return tuple(self._children.values())

    def child_for_option(self, option: object) -> "ClassOfDesignObjects":
        """The specialization spawned by ``option`` of the generalized issue."""
        try:
            return self._children[option]
        except KeyError:
            raise HierarchyError(
                f"{self.qualified_name}: no specialization for option {option!r}"
            ) from None

    @property
    def is_leaf(self) -> bool:
        """Leaf CDOs carry no generalized design issue (paper Sec 4)."""
        return self._generalized_issue is None

    def walk(self) -> Iterator["ClassOfDesignObjects"]:
        """Pre-order traversal of the sub-hierarchy rooted here."""
        yield self
        for child in self._children.values():
            yield from child.walk()

    def is_ancestor_of(self, other: "ClassOfDesignObjects") -> bool:
        node: Optional[ClassOfDesignObjects] = other.parent
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def add_property(self, prop: Property) -> Property:
        """Attach a property to this class.

        A generalized design issue may appear at most once per CDO; a
        property name may not shadow one inherited from an ancestor —
        the paper's layers are self-documenting, and silent shadowing
        would make ``Radix@*.Hardware`` ambiguous.
        """
        if prop.name in self._properties:
            raise PropertyError(
                f"{self.qualified_name}: duplicate property {prop.name!r}")
        owner = self.find_property_owner(prop.name)
        if owner is not None:
            raise PropertyError(
                f"{self.qualified_name}: property {prop.name!r} already "
                f"defined on ancestor {owner.qualified_name}")
        if isinstance(prop, DesignIssue) and prop.generalized:
            if self._generalized_issue is not None:
                raise HierarchyError(
                    f"{self.qualified_name}: already has generalized issue "
                    f"{self._generalized_issue.name!r}; a CDO may contain at "
                    f"most one generalized design issue")
            self._generalized_issue = prop
        self._properties[prop.name] = prop
        self._touch_structure()
        return prop

    @property
    def own_properties(self) -> Sequence[Property]:
        return tuple(self._properties.values())

    @property
    def generalized_issue(self) -> Optional[DesignIssue]:
        return self._generalized_issue

    def all_properties(self) -> List[Property]:
        """Own plus inherited properties, outermost ancestor first."""
        out: List[Property] = []
        for node in self.path_from_root():
            out.extend(node._properties.values())
        return out

    def find_property(self, name: str) -> Property:
        """Resolve ``name`` on this class or its ancestors."""
        node: Optional[ClassOfDesignObjects] = self
        while node is not None:
            if name in node._properties:
                return node._properties[name]
            node = node.parent
        raise PropertyError(
            f"{self.qualified_name}: no property {name!r} here or on ancestors")

    def has_property(self, name: str) -> bool:
        try:
            self.find_property(name)
            return True
        except PropertyError:
            return False

    def find_property_owner(self, name: str) -> Optional["ClassOfDesignObjects"]:
        """The CDO (self or ancestor) on which ``name`` is declared."""
        node: Optional[ClassOfDesignObjects] = self
        while node is not None:
            if name in node._properties:
                return node
            node = node.parent
        return None

    def requirements(self) -> List[Requirement]:
        return [p for p in self.all_properties() if isinstance(p, Requirement)]

    def design_issues(self, include_generalized: bool = True) -> List[DesignIssue]:
        issues = [p for p in self.all_properties() if isinstance(p, DesignIssue)]
        if not include_generalized:
            issues = [i for i in issues if not i.generalized]
        return issues

    def behavioral_descriptions(self) -> List[BehavioralDescription]:
        return [p for p in self.all_properties()
                if isinstance(p, BehavioralDescription)]

    # ------------------------------------------------------------------
    # specialization
    # ------------------------------------------------------------------
    def specialize(self, option: object, name: Optional[str] = None,
                   doc: str = "") -> "ClassOfDesignObjects":
        """Create the child CDO for ``option`` of the generalized issue.

        ``name`` defaults to ``str(option)``.  The child starts with no
        properties of its own; domain layers then attach the issues that
        become meaningful inside the narrowed region (paper Sec 5.1.5).
        """
        if self._generalized_issue is None:
            raise HierarchyError(
                f"{self.qualified_name}: cannot specialize a CDO without a "
                f"generalized design issue")
        self._generalized_issue.validate(option)
        if option in self._children:
            raise HierarchyError(
                f"{self.qualified_name}: option {option!r} already specialized")
        child_name = name if name is not None else str(option)
        child_doc = doc or (f"Specialization of {self.qualified_name} for "
                            f"{self._generalized_issue.name} = {option}")
        child = ClassOfDesignObjects(child_name, child_doc, parent=self,
                                     option_of_parent=option)
        self._children[option] = child
        self._touch_structure()
        return child

    def specialize_all(self) -> List["ClassOfDesignObjects"]:
        """Specialize every not-yet-specialized option of the generalized
        issue; returns the full child list."""
        if self._generalized_issue is None:
            raise HierarchyError(
                f"{self.qualified_name}: no generalized issue to specialize")
        for option in self._generalized_issue.options():
            if option not in self._children:
                self.specialize(option)
        return list(self._children.values())

    # ------------------------------------------------------------------
    # validation / rendering
    # ------------------------------------------------------------------
    def subtree_violations(self
                           ) -> List[Tuple["ClassOfDesignObjects", str]]:
        """All structural violations in the sub-hierarchy rooted here.

        Returns ``(cdo, problem)`` pairs: a CDO with children but no
        generalized design issue, or a child whose option is outside the
        issue's domain.  This is the shared substrate of
        :meth:`validate_subtree` and the lint engine's hierarchy rules
        (``DSL002``) — one walk, every finding.
        """
        out: List[Tuple[ClassOfDesignObjects, str]] = []
        for node in self.walk():
            if node._children and node._generalized_issue is None:
                out.append((node, "has children but no generalized "
                                  "design issue"))
                continue
            for option in node._children:
                try:
                    node._generalized_issue.validate(option)
                except ReproError as exc:
                    out.append((node, f"child option {option!r} is not "
                                      f"in the generalized issue's "
                                      f"domain: {exc}"))
        return out

    def validate_subtree(self) -> None:
        """Check structural invariants of the sub-hierarchy rooted here.

        Every child must correspond to an option of the generalized
        issue, and leaves must have no children.  *All* violations are
        aggregated into one exception message, so hierarchy authors see
        the complete damage report instead of the first broken node.
        """
        violations = self.subtree_violations()
        if violations:
            lines = [f"{node.qualified_name}: {problem}"
                     for node, problem in violations]
            raise HierarchyError(
                f"{len(violations)} structural violation(s) under "
                f"{self.qualified_name}:\n  " + "\n  ".join(lines))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CDO {self.qualified_name}>"
