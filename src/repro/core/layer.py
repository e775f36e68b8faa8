"""The design space layer itself (paper Fig 1).

A :class:`DesignSpaceLayer` bundles everything a design environment
tailors to its application domains:

* a forest of CDO hierarchies (Fig 5's ``Operator`` tree is one root);
* name aliases (the paper freely abbreviates
  ``Operator.Modular.Multiplier`` as ``OMM``);
* the consistency constraints governing exploration (Fig 13);
* registered early estimation tools (invoked through CC relations);
* selector implementations for the path language; and
* a federation of reuse libraries whose cores the layer indexes.

The layer is purely a *representation* — exploration state lives in
:class:`repro.core.session.ExplorationSession` objects created from it.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.core.cdo import QNAME_SEP, ClassOfDesignObjects
from repro.core.constraints import ConsistencyConstraint, ConstraintSet
from repro.core.designobject import DesignObject
from repro.core.library import LibraryFederation, ReuseLibrary
from repro.core.obs import events as _ev
from repro.core.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.core.path import PropertyPath, SelectorRegistry, parse_path
from repro.core.properties import Property
from repro.errors import HierarchyError, LibraryError, PathError

#: Sentinel distinguishing ``layer.observe()`` from ``layer.observe(None)``.
_UNSET = object()


class DesignSpaceLayer:
    """A self-documented, compartmentalized design space representation."""

    def __init__(self, name: str, doc: str):
        if not name:
            raise HierarchyError("layer name must be non-empty")
        if not doc:
            raise HierarchyError(f"layer {name!r} needs a documentation string")
        self.name = name
        self.doc = doc
        self._roots: Dict[str, ClassOfDesignObjects] = {}
        self._aliases: Dict[str, str] = {}
        self.constraints = ConstraintSet()
        self.libraries = LibraryFederation()
        self.selectors = SelectorRegistry()
        self._tools: Dict[str, Callable] = {}
        #: Trace recorder every instrumented hot path reports to; the
        #: default is the shared no-op (see :meth:`observe`).
        self.observer = NULL_RECORDER
        self._epoch = 0
        self._epoch_signature: object = None
        self._cdo_cache: Dict[str, ClassOfDesignObjects] = {}
        self._cdo_cache_epoch = -1
        self._all_cdos_cache: Optional[List[ClassOfDesignObjects]] = None
        #: Guards the derived-epoch recomputation and the hierarchy
        #: caches.  The signature compare-then-bump in :attr:`epoch` is
        #: a classic lost-update window: a reader that publishes the new
        #: signature before the increment lands lets a concurrent reader
        #: key fresh state under the old epoch — stale forever after.
        self._cache_lock = threading.RLock()

    # ------------------------------------------------------------------
    # epoch machinery
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic generation counter covering hierarchy edits, alias /
        constraint / tool registration and every library mutation.

        Caches throughout the query stack (CDO resolution, core indexes,
        session memoization) key on this value, so they expire lazily and
        no mutation site ever has to flush them explicitly.
        """
        with self._cache_lock:
            signature = (self.libraries.epoch,
                         len(self._aliases),
                         len(self.constraints),
                         len(self._tools),
                         tuple(root._version
                               for root in self._roots.values()))
            if signature != self._epoch_signature:
                self._epoch_signature = signature
                self._epoch += 1
            return self._epoch

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def observe(self, recorder: object = _UNSET):
        """Install, disable, or fetch the layer's trace recorder.

        * ``layer.observe()`` — ensure tracing is on and return the
          active :class:`~repro.core.obs.recorder.TraceRecorder`
          (creating one on first call);
        * ``layer.observe(my_recorder)`` — install a specific recorder
          (tests inject deterministic clocks this way);
        * ``layer.observe(None)`` — switch tracing off (reinstalls the
          shared no-op recorder).

        The recorder is propagated to the library federation and every
        attached library so index rebuilds are traced too; sessions pick
        it up lazily on their next instrumented operation, announcing
        themselves with a ``session_open`` event that carries any state
        accumulated before tracing was switched on.
        """
        _sanitizer.check_write(self, "DesignSpaceLayer.observe")
        if recorder is _UNSET:
            if not self.observer.enabled:
                return self.observe(TraceRecorder())
            return self.observer
        if recorder is None:
            recorder = NULL_RECORDER
        self.observer = recorder
        self.libraries.observer = recorder
        for library in self.libraries.libraries:
            library.observer = recorder
        return recorder

    def _hierarchy_caches(self) -> Dict[str, ClassOfDesignObjects]:
        with self._cache_lock:
            epoch = self.epoch
            if epoch != self._cdo_cache_epoch:
                self._cdo_cache = {}
                self._all_cdos_cache = None
                self._cdo_cache_epoch = epoch
            return self._cdo_cache

    # ------------------------------------------------------------------
    # hierarchy management
    # ------------------------------------------------------------------
    def add_root(self, cdo: ClassOfDesignObjects) -> ClassOfDesignObjects:
        _sanitizer.check_write(self, "DesignSpaceLayer.add_root")
        if cdo.parent is not None:
            raise HierarchyError(
                f"{cdo.qualified_name} is not a root (it has a parent)")
        if cdo.name in self._roots:
            raise HierarchyError(f"duplicate root CDO {cdo.name!r}")
        self._roots[cdo.name] = cdo
        return cdo

    @property
    def roots(self) -> Sequence[ClassOfDesignObjects]:
        return tuple(self._roots.values())

    def all_cdos(self) -> List[ClassOfDesignObjects]:
        with self._cache_lock:
            self._hierarchy_caches()
            if self._all_cdos_cache is None:
                out: List[ClassOfDesignObjects] = []
                for root in self._roots.values():
                    out.extend(root.walk())
                self._all_cdos_cache = out
            return list(self._all_cdos_cache)

    def cdo(self, qualified_name: str) -> ClassOfDesignObjects:
        """Look up a CDO by qualified name or registered alias
        (resolutions are epoch-cached)."""
        cache = self._hierarchy_caches()
        hit = cache.get(qualified_name)
        if hit is not None:
            return hit
        requested = qualified_name
        qualified_name = self._aliases.get(qualified_name, qualified_name)
        parts = qualified_name.split(QNAME_SEP)
        try:
            node = self._roots[parts[0]]
        except KeyError:
            raise HierarchyError(
                f"layer {self.name!r}: no root CDO {parts[0]!r} "
                f"(roots: {sorted(self._roots)})") from None
        for part in parts[1:]:
            matches = [c for c in node.children if c.name == part]
            if not matches:
                raise HierarchyError(
                    f"layer {self.name!r}: {node.qualified_name} has no "
                    f"child {part!r}")
            node = matches[0]
        cache[requested] = node
        return node

    def has_cdo(self, qualified_name: str) -> bool:
        try:
            self.cdo(qualified_name)
            return True
        except HierarchyError:
            return False

    # ------------------------------------------------------------------
    # aliases
    # ------------------------------------------------------------------
    def add_alias(self, alias: str, qualified_name: str) -> None:
        """Register an abbreviation (``OMM`` -> ``Operator.Modular.Multiplier``)."""
        _sanitizer.check_write(self, "DesignSpaceLayer.add_alias")
        if alias in self._aliases:
            raise HierarchyError(f"duplicate alias {alias!r}")
        # Fail fast if the target does not exist.
        self.cdo(qualified_name)
        self._aliases[alias] = qualified_name

    @property
    def aliases(self) -> Mapping[str, str]:
        return dict(self._aliases)

    # ------------------------------------------------------------------
    # constraints and tools
    # ------------------------------------------------------------------
    def add_constraint(self, constraint: ConsistencyConstraint
                       ) -> ConsistencyConstraint:
        return self.constraints.add(constraint)

    def register_tool(self, name: str, tool: Callable) -> None:
        """Register an early estimation tool, addressable from
        :class:`~repro.core.relations.EstimatorInvocation` relations."""
        _sanitizer.check_write(self, "DesignSpaceLayer.register_tool")
        if name in self._tools:
            raise HierarchyError(f"estimation tool {name!r} already registered")
        self._tools[name] = tool

    @property
    def tools(self) -> Mapping[str, Callable]:
        return dict(self._tools)

    # ------------------------------------------------------------------
    # libraries / cores
    # ------------------------------------------------------------------
    def attach_library(self, library: ReuseLibrary) -> ReuseLibrary:
        """Attach a reuse library; every core must index under a known CDO."""
        _sanitizer.check_write(self, "DesignSpaceLayer.attach_library")
        for core in library:
            self._check_core(core)
        library.observer = self.observer
        return self.libraries.attach(library)

    def _check_core(self, core: DesignObject) -> None:
        if not self.has_cdo(core.cdo_name):
            raise LibraryError(
                f"core {core.name!r} indexes under unknown CDO "
                f"{core.cdo_name!r}")

    def cores_under(self, qualified_name: str,
                    include_descendants: bool = True) -> List[DesignObject]:
        cdo = self.cdo(qualified_name)
        return self.libraries.cores_under(cdo.qualified_name,
                                          include_descendants)

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------
    def resolve_path(self, path: "str | PropertyPath"
                     ) -> List[Tuple[ClassOfDesignObjects, Property]]:
        if isinstance(path, str):
            path = parse_path(path)
        return path.expand_aliases(self._aliases).resolve(self.all_cdos())

    def resolve_single(self, path: "str | PropertyPath"
                       ) -> Tuple[ClassOfDesignObjects, Property]:
        hits = self.resolve_path(path)
        # Multiple matched CDOs may inherit the same declared property;
        # that still identifies a single property schema.
        unique = {id(prop): (cdo, prop) for cdo, prop in hits}
        if len(unique) > 1:
            rendered = path if isinstance(path, str) else path.render()
            raise PathError(
                f"{rendered}: ambiguous — resolves to "
                f"{[f'{p.name}@{c.qualified_name}' for c, p in hits]}")
        return next(iter(unique.values()))

    # ------------------------------------------------------------------
    # validation / documentation
    # ------------------------------------------------------------------
    def lint(self, config: object = None, strict: bool = False):
        """Run the static-analysis rules over this layer.

        Returns a :class:`~repro.core.lint.diagnostics.LintReport`.  With
        ``strict=True``, error-severity findings raise
        :class:`~repro.errors.LintError` (carrying the full report) —
        the fail-fast mode domain builders use to refuse to ship a
        broken layer.  Unlike :meth:`validate`, linting never stops at
        the first problem and also covers advisory findings.
        """
        from repro.core.lint import LintConfig, lint_layer
        from repro.errors import LintError
        if config is not None and not isinstance(config, LintConfig):
            raise LintError(
                f"layer.lint() expects a LintConfig, got "
                f"{type(config).__name__}")
        with self.observer.span(_ev.LINT_RUN, layer=self.name) as span:
            report = lint_layer(self, config=config)
            span.note(diagnostics=len(report), errors=len(report.errors))
        if strict and report.errors:
            raise LintError(
                f"layer {self.name!r} failed strict lint: "
                f"{report.summary()}", report=report)
        return report

    def verify(self, requirements: Sequence[Tuple[str, object]] = (),
               start: Optional[str] = None, config: object = None,
               strict: bool = False):
        """Run the semantic verifier over this layer.

        Abstract interpretation over the consistency constraints: per-CDO
        feasible-region over-approximation, dead-branch proofs
        (``DSL100``/``DSL101``), minimal unsat cores for infeasible
        requirement sets (``DSL103``) and a constraint stratification
        report (``DSL102``).  Returns a
        :class:`~repro.core.verify.report.VerifyReport`; with
        ``strict=True`` error-severity findings raise
        :class:`~repro.errors.LintError`.  Repeated runs against an
        unchanged layer are served from an epoch-keyed cache.
        """
        from repro.core.lint import LintConfig
        from repro.core.verify import verify_layer
        from repro.errors import LintError
        if config is not None and not isinstance(config, LintConfig):
            raise LintError(
                f"layer.verify() expects a LintConfig, got "
                f"{type(config).__name__}")
        with self.observer.span(_ev.VERIFY_RUN, layer=self.name) as span:
            report = verify_layer(self, requirements=requirements,
                                  start=start, config=config)
            analysis = report.analysis
            span.note(diagnostics=len(report.lint),
                      proofs=len(analysis.proofs),
                      unsat_cores=len(analysis.unsat_cores))
            if self.observer.enabled:
                for proof in analysis.proofs:
                    self.observer.emit(
                        _ev.DEAD_BRANCH_PROVED, cdo=proof.cdo,
                        issue=proof.issue, option=repr(proof.option),
                        proof_kind=proof.kind, constraint=proof.constraint)
                for core in analysis.unsat_cores:
                    self.observer.emit(
                        _ev.UNSAT_CORE_FOUND, region=core.region,
                        requirements=[f"{n}={v!r}"
                                      for n, v in core.requirements],
                        constraints=list(core.constraints))
        if strict and report.lint.errors:
            raise LintError(
                f"layer {self.name!r} failed strict verify: "
                f"{report.summary()}", report=report.lint)
        return report

    def explore(self, start: str, strategy: str = "exhaustive",
                metrics: Sequence[str] = ("area", "latency_ns"),
                requirements: object = (), decisions: object = (),
                issues: Optional[Sequence[str]] = None,
                estimator: Optional[Callable] = None,
                **strategy_options: object):
        """Run a serial automated search over this layer; returns an
        :class:`~repro.core.explore.engine.ExplorationResult`.

        Convenience wrapper: builds an
        :class:`~repro.core.explore.problem.ExplorationProblem` bound to
        this layer and hands it to the
        :class:`~repro.core.explore.engine.ExplorationEngine`.  See
        ``docs/exploration.md`` for the strategy catalogue; a parallel
        search ships its problem to worker processes, which need a
        picklable ``layer_factory`` or a ``snapshot``, so it is not
        reachable through this shortcut.
        """
        from repro.core.explore import ExplorationEngine, ExplorationProblem
        problem = ExplorationProblem(
            start=start, metrics=tuple(metrics),
            requirements=requirements, decisions=decisions,
            issues=tuple(issues) if issues is not None else None,
            layer=self, estimator=estimator)
        return ExplorationEngine(problem, strategy=strategy,
                                 strategy_options=strategy_options).run()

    def snapshot(self, hydrators: Sequence[str] = (),
                 lenient: bool = False):
        """Capture a compact, picklable snapshot of this layer.

        Returns a :class:`~repro.core.serialize.LayerSnapshot` —
        the representation serialized once, plus the *names* of
        registered hydrators (:func:`~repro.core.serialize.register_hydrator`)
        that re-attach consistency-constraint relations and estimation
        tools on the hydrating side.  Worker pools ship this to each
        process once instead of re-running a ``layer_factory`` per task
        (see ``docs/exploration.md``).
        """
        from repro.core.serialize import LayerSnapshot
        return LayerSnapshot.capture(self, hydrators=hydrators,
                                     lenient=lenient)

    def validate(self) -> None:
        """Structural sanity of the whole layer.

        Checks each hierarchy's invariants, that every indexed core's CDO
        exists, and that every constraint's path references resolve.
        """
        for root in self._roots.values():
            root.validate_subtree()
        for core in self.libraries:
            self._check_core(core)
        cdos = self.all_cdos()
        for constraint in self.constraints:
            for alias, ref in {**constraint.independents,
                               **constraint.dependents,
                               **constraint.shorts}.items():
                if isinstance(ref, PropertyPath):
                    try:
                        ref.expand_aliases(self._aliases).resolve(cdos)
                    except PathError as exc:
                        raise PathError(
                            f"constraint {constraint.name!r}, alias "
                            f"{alias!r}: {exc}") from exc

    def describe(self) -> str:
        """Multi-line self-documentation of the layer."""
        lines = [f"Design space layer {self.name!r}: {self.doc}", ""]
        for root in self._roots.values():
            for node in root.walk():
                depth = len(node.ancestors())
                indent = "  " * depth
                marker = "" if node.is_leaf else " [+]"
                lines.append(f"{indent}{node.name}{marker} -- {node.doc}")
                for prop in node.own_properties:
                    lines.append(f"{indent}  . {prop.describe()}")
        if len(self.constraints):
            lines.append("")
            lines.append("Consistency constraints:")
            for constraint in self.constraints:
                lines.append(constraint.describe())
        if len(self.libraries.libraries):
            lines.append("")
            names = ", ".join(f"{lib.name} ({len(lib)} cores)"
                              for lib in self.libraries.libraries)
            lines.append(f"Attached reuse libraries: {names}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DesignSpaceLayer {self.name} roots={sorted(self._roots)} "
                f"cores={len(self.libraries)}>")
