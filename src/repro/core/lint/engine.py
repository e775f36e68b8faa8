"""The lint engine: walk a layer once, run every enabled rule over it.

The engine never opens an :class:`~repro.core.session.ExplorationSession`
— linting is a *static* pass over the layer's three artifact families
(CDO hierarchies, the constraint network, the library federation).  A
:class:`LintContext` precomputes the shared views every rule needs
(qualified-name maps, per-CDO core groupings, ancestor core counts) so
each rule stays linear in the artifact count; the 5k-core benchmark in
``benchmarks/test_bench_lint.py`` guards that property.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.cdo import QNAME_SEP, ClassOfDesignObjects
from repro.core.constraints import ConsistencyConstraint
from repro.core.designobject import DesignObject
from repro.core.lint.diagnostics import Diagnostic, LintReport
from repro.core.lint.registry import (
    DEFAULT_REGISTRY,
    LintConfig,
    RuleRegistry,
)
from repro.core.path import PropertyPath
from repro.errors import LintError, PathError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.layer import DesignSpaceLayer
    from repro.core.library import ReuseLibrary


class LintContext:
    """Shared, precomputed views of one layer for all rules of one run."""

    def __init__(self, layer: "DesignSpaceLayer"):
        self.layer = layer
        self.aliases: Dict[str, str] = dict(layer.aliases)
        self.cdos: List[ClassOfDesignObjects] = layer.all_cdos()
        self.constraints: List[ConsistencyConstraint] = \
            list(layer.constraints)

        #: qualified name -> CDO (first occurrence wins, mirroring the
        #: resolution order of :meth:`DesignSpaceLayer.cdo`).
        self.by_qname: Dict[str, ClassOfDesignObjects] = {}
        for cdo in self.cdos:
            self.by_qname.setdefault(cdo.qualified_name, cdo)
        self.leaves: List[ClassOfDesignObjects] = \
            [c for c in self.cdos if c.is_leaf]

        #: (library, core) pairs across the federation, plus groupings.
        self.cores: List[Tuple["ReuseLibrary", DesignObject]] = []
        self.cores_by_cdo: Dict[str, List[DesignObject]] = {}
        #: cores indexed at or under each known qualified name.
        self.core_counts_under: Dict[str, int] = {}
        for library in layer.libraries.libraries:
            for core in library:
                self.cores.append((library, core))
                self.cores_by_cdo.setdefault(core.cdo_name, []).append(core)
                owner = self.by_qname.get(core.cdo_name)
                if owner is not None:
                    for node in owner.path_from_root():
                        qname = node.qualified_name
                        self.core_counts_under[qname] = \
                            self.core_counts_under.get(qname, 0) + 1

    # ------------------------------------------------------------------
    # helpers shared by rule implementations
    # ------------------------------------------------------------------
    def core_location_name(self, library: "ReuseLibrary",
                           core: DesignObject) -> str:
        return f"{library.name}/{core.name}"

    def applicable_cdos(self, constraint: ConsistencyConstraint
                        ) -> List[ClassOfDesignObjects]:
        """CDOs where every reference of ``constraint`` is meaningful,
        read off the layer's memoized per-CDO answer."""
        return [cdo for cdo in self.cdos
                if constraint in self.layer.applicable_constraints(cdo)]

    def resolve_ref(self, ref: PropertyPath
                    ) -> List[Tuple[ClassOfDesignObjects, object]]:
        """Resolve a path reference against the layer (alias-expanded);
        raises :class:`~repro.errors.PathError` when dangling."""
        return ref.expand_aliases(self.aliases).resolve(self.cdos)

    def sampled_values(self, ref: object, limit: int = 8
                       ) -> Optional[Tuple[object, ...]]:
        """Representative values of a path reference's property domain.

        Returns ``None`` when the reference cannot be sampled statically
        (session bindings, dangling paths, unenumerable domains) — rules
        then stay silent rather than guess.
        """
        if not isinstance(ref, PropertyPath):
            return None
        try:
            hits = self.resolve_ref(ref)
        except PathError:
            return None
        _cdo, prop = hits[0]
        domain = getattr(prop, "domain", None)
        if domain is None:
            return None
        try:
            samples = tuple(domain.sample(limit))
        except Exception:
            return None
        if not samples:
            return None
        # Deduplicate, preserving order.
        seen = []
        for value in samples:
            if value not in seen:
                seen.append(value)
        return tuple(seen)

    def is_descendant_name(self, qname: str, ancestor_qname: str) -> bool:
        return qname == ancestor_qname or \
            qname.startswith(ancestor_qname + QNAME_SEP)


def _loaded_registry(registry: Optional[RuleRegistry]) -> RuleRegistry:
    if registry is not None:
        return registry
    # Importing the rule modules populates DEFAULT_REGISTRY exactly once.
    from repro.core.lint import rules_constraints  # noqa: F401
    from repro.core.lint import rules_decomposition  # noqa: F401
    from repro.core.lint import rules_hierarchy  # noqa: F401
    from repro.core.lint import rules_library  # noqa: F401
    from repro.core.lint import rules_verify  # noqa: F401
    return DEFAULT_REGISTRY


def lint_layer(layer: "DesignSpaceLayer",
               config: Optional[LintConfig] = None,
               registry: Optional[RuleRegistry] = None) -> LintReport:
    """Run every enabled rule over ``layer`` and collect a report.

    A rule that itself crashes is reported as a ``DSL000`` error naming
    the rule rather than aborting the pass — a linter that dies on the
    layers it exists to debug would be useless.
    """
    registry = _loaded_registry(registry)
    config = config if config is not None else LintConfig()
    config.validate(registry)
    context = LintContext(layer)
    diagnostics: List[Diagnostic] = []
    for lint_rule in registry:
        if not config.is_enabled(lint_rule):
            continue
        make = lint_rule.factory(config.severity_for(lint_rule))
        options = config.options_for(lint_rule)
        try:
            findings: Sequence[Diagnostic] = \
                list(lint_rule.check(context, options, make))
        except LintError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            from repro.core.lint.diagnostics import (
                Severity,
                SourceLocation,
            )
            findings = [Diagnostic(
                code="DSL000", rule=lint_rule.slug,
                severity=Severity.ERROR,
                location=SourceLocation("layer", layer.name),
                message=f"rule {lint_rule.code} crashed: {exc}",
                hint="report this as a linter bug")]
        diagnostics.extend(findings)
    return LintReport(layer.name, diagnostics)
