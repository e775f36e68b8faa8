"""Semantic design-space verifier: abstract interpretation over CCs.

The verifier statically computes, for every CDO in scope, a sound
over-approximation of its *feasible region* — which property values any
exploration session positioned there could still realize — by
propagating the abstract values of :mod:`repro.core.verify.domains`
through the layer's :class:`~repro.core.constraints.ConstraintSet`.
Three analyses are built on the fixpoint:

**Dead-branch proofs.**  A design-issue option is *proved dead* at a CDO
when every session reachable there (under the given requirement set)
would be rejected for choosing it.  The proof obligation is universal:
for each constraint alias the verifier computes the *guaranteed pool* —
the complete set of values the alias can bind to across all reachable
session states — and shows the relation fails on **every** combination.
Whenever a pool cannot be bounded (session-computed bindings, estimator
outputs, unresolved parametric domains, un-entered requirements), the
verifier *widens*: it makes no claim, so no proof is ever unsound.
Three proof kinds are emitted:

* ``rejected-decision`` — ``session.decide(issue, option)`` raises a
  :class:`~repro.errors.ConstraintViolation` in every reachable state;
* ``eliminated-option`` — an :class:`~repro.core.relations.EliminateOptions`
  relation eliminates the pair under every consistent binding;
* ``empty-region`` — no reusable core under the option satisfies the
  given requirements (index-based; only sound for pre-pruning under the
  ``EXCLUDE`` missing policy and in the absence of an estimator).

Because the first two kinds coincide exactly with decisions the
exploration engine itself would reject or prune, masking them preserves
the exhaustive frontier byte-for-byte (the property suite checks this).

**Unsat cores.**  When a requirement set is infeasible at a region —
no core survives, or some constraint is guaranteed to fail before any
decision is taken — a *minimal* conflicting subset of requirements and
constraints is extracted by deletion-based shrinking (the infeasibility
predicate is monotone in the element set, so single-pass deletion yields
a minimal core) and rendered with fix-it hints.

**Stratification.**  The independent→dependent property edges induce a
DAG of strata (SCC condensation, reusing the lint cycle machinery); a
stratum is *widening-unstable* when an estimator-derived property feeds
further constraints — its value is opaque to the abstract domain, so
everything downstream of it widens.

The analysis is pure (no sessions are opened, no estimators invoked —
:class:`~repro.core.relations.EstimatorInvocation` relations are always
widened, never evaluated) and cached per layer epoch, so repeated
verifies of an unchanged layer are near-free.

Soundness contract: relations must depend only on their declared
``requires`` aliases — the same contract :meth:`Relation._require`
enforces and the lint sampler (DSL014) assumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

from repro.core.cdo import ClassOfDesignObjects
from repro.core.constraints import ConsistencyConstraint, SessionBinding
from repro.core.path import PropertyPath
from repro.core.properties import (BehavioralDescription, DesignIssue,
                                   Requirement)
from repro.core.pruning import MissingPolicy
from repro.core.relations import (EliminateOptions, EstimatorInvocation,
                                  Formula, RelationResult)
from repro.core.verify.domains import (MAX_FINITE, TOP, AbstractValue,
                                       FiniteSet, Interval, abstract_of,
                                       describe, finite_values, is_empty,
                                       meet)
from repro.errors import HierarchyError, PropertyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.layer import DesignSpaceLayer

#: Above this many alias-value combinations a proof attempt widens.
MAX_COMBINATIONS = 512
#: Requirement domains larger than this are not probed for enterability.
MAX_REQUIREMENT_PROBE = 16

Given = Tuple[Tuple[str, object], ...]
_Ref = Union[PropertyPath, SessionBinding]


def _json_safe(value: object) -> object:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeadBranchProof:
    """A design-issue option proved unreachable/unrejectable at a CDO."""

    cdo: str
    issue: str
    option: object
    #: ``rejected-decision`` | ``eliminated-option`` | ``empty-region``
    kind: str
    constraint: str = ""
    explanation: str = ""

    def key(self) -> Tuple[str, str, str]:
        """The (cdo, issue, repr(option)) triple used in prune masks."""
        return (self.cdo, self.issue, repr(self.option))


@dataclass(frozen=True)
class CdoRegion:
    """Sound over-approximation of the feasible region at one CDO."""

    qname: str
    core_count: int
    merit_intervals: Mapping[str, Interval]
    properties: Mapping[str, AbstractValue]
    #: Property names whose abstract value is strictly tighter than the
    #: bare domain abstraction — i.e. the constraints taught us something.
    narrowed: Tuple[str, ...]
    #: Property names the analysis gave up on (estimator outputs,
    #: unboundable pools).
    widened: Tuple[str, ...]
    empty: bool


@dataclass(frozen=True)
class UnsatCore:
    """A minimal infeasible subset of requirements and constraints."""

    region: str
    requirements: Tuple[Tuple[str, object], ...]
    constraints: Tuple[str, ...]
    hints: Tuple[str, ...]


@dataclass(frozen=True)
class Stratum:
    """One level of the independent→dependent property ordering."""

    index: int
    properties: Tuple[str, ...]
    fan_out: int
    unstable: bool
    unstable_properties: Tuple[str, ...]


@dataclass(frozen=True)
class VerifyAnalysis:
    """Everything one verifier run proved about a layer."""

    layer_name: str
    epoch: int
    requirements: Given
    start: Optional[str]
    regions: Mapping[str, CdoRegion]
    proofs: Tuple[DeadBranchProof, ...]
    unsat_cores: Tuple[UnsatCore, ...]
    infeasible_regions: Tuple[str, ...]
    strata: Tuple[Stratum, ...]

    def proofs_at(self, qname: str) -> Tuple[DeadBranchProof, ...]:
        return tuple(p for p in self.proofs if p.cdo == qname)

    def prune_mask(self, missing_policy: MissingPolicy = MissingPolicy.EXCLUDE
                   ) -> FrozenSet[Tuple[str, str, str]]:
        """The proof keys an exploration may soundly skip.

        ``empty-region`` proofs quantify over *documented* core
        properties, so they only hold under the ``EXCLUDE`` missing
        policy; constraint-based proofs hold regardless.
        """
        keys: Set[Tuple[str, str, str]] = set()
        for proof in self.proofs:
            if (proof.kind == "empty-region"
                    and missing_policy is not MissingPolicy.EXCLUDE):
                continue
            keys.add(proof.key())
        return frozenset(keys)

    def to_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer_name,
            "epoch": self.epoch,
            "start": self.start,
            "requirements": [{"name": n, "value": _json_safe(v)}
                             for n, v in self.requirements],
            "regions": [
                {"cdo": r.qname,
                 "cores": r.core_count,
                 "empty": r.empty,
                 "merit_intervals": {m: [iv.lo, iv.hi]
                                     for m, iv in sorted(r.merit_intervals.items())},
                 "narrowed": {n: describe(r.properties[n]) for n in r.narrowed},
                 "widened": list(r.widened)}
                for r in (self.regions[q] for q in sorted(self.regions))],
            "dead_branches": [
                {"cdo": p.cdo, "issue": p.issue, "option": _json_safe(p.option),
                 "kind": p.kind, "constraint": p.constraint,
                 "explanation": p.explanation}
                for p in self.proofs],
            "unsat_cores": [
                {"region": c.region,
                 "requirements": [{"name": n, "value": _json_safe(v)}
                                  for n, v in c.requirements],
                 "constraints": list(c.constraints),
                 "hints": list(c.hints)}
                for c in self.unsat_cores],
            "infeasible_regions": list(self.infeasible_regions),
            "strata": [
                {"index": s.index, "properties": list(s.properties),
                 "fan_out": s.fan_out, "unstable": s.unstable,
                 "unstable_properties": list(s.unstable_properties)}
                for s in self.strata],
        }


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------

class _Analyzer:
    def __init__(self, layer: "DesignSpaceLayer", requirements: Given,
                 start: Optional[str]):
        self.layer = layer
        self.given: Dict[str, object] = dict(requirements)
        self.start = start
        self.index = layer.libraries.index()
        self.constraints: List[ConsistencyConstraint] = list(layer.constraints)
        self.metrics: Tuple[str, ...] = tuple(sorted(self.index._with_merit))
        self.tools = dict(layer.tools)

    # -- shared helpers -------------------------------------------------
    def _visible_requirements(self, cdo: ClassOfDesignObjects,
                              given: Optional[Mapping[str, object]] = None
                              ) -> List[Tuple[Requirement, object]]:
        given = self.given if given is None else given
        out: List[Tuple[Requirement, object]] = []
        for name in sorted(given):
            try:
                prop = cdo.find_property(name)
            except PropertyError:
                continue
            if isinstance(prop, Requirement):
                out.append((prop, given[name]))
        return out

    def _sees_requirement(self, cdo: ClassOfDesignObjects, name: str) -> bool:
        try:
            return isinstance(cdo.find_property(name), Requirement)
        except PropertyError:
            return False

    def _pinned(self, cdo: ClassOfDesignObjects) -> Dict[str, object]:
        """Generalized options pinned by the path from the root."""
        out: Dict[str, object] = {}
        path = cdo.path_from_root()
        for parent, node in zip(path, path[1:]):
            issue = parent.generalized_issue
            if issue is not None:
                out[issue.name] = node.option_of_parent
        return out

    def _pinned_option(self, cdo: ClassOfDesignObjects,
                       owner: ClassOfDesignObjects) -> Optional[object]:
        path = cdo.path_from_root()
        for parent, node in zip(path, path[1:]):
            if parent is owner:
                return node.option_of_parent
        return None

    def _context(self, cdo: ClassOfDesignObjects,
                 given: Optional[Mapping[str, object]] = None
                 ) -> Dict[str, object]:
        """Concrete values every session at ``cdo`` agrees on: the given
        requirements plus the path-pinned generalized options."""
        ctx = dict(self.given if given is None else given)
        for name, option in self._pinned(cdo).items():
            ctx.setdefault(name, option)
        return ctx

    def _derived_targets(self,
                         constraints: Sequence[ConsistencyConstraint]
                         ) -> Set[str]:
        out: Set[str] = set()
        for c in constraints:
            rel = c.relation
            if isinstance(rel, (Formula, EstimatorInvocation)):
                ref = c.dependents.get(rel.target)
                if isinstance(ref, PropertyPath):
                    out.add(ref.property_name)
        return out

    # -- guaranteed pools ----------------------------------------------
    def _pool(self, cdo: ClassOfDesignObjects, ref: _Ref,
              decided: Mapping[str, object], derived_targets: Set[str],
              given: Mapping[str, object],
              env: Optional[Mapping[str, AbstractValue]] = None
              ) -> Optional[Tuple[object, ...]]:
        """The complete set of values ``ref`` can bind to across every
        session state at ``cdo`` consistent with ``decided``/``given`` —
        or ``None`` when it cannot be bounded (including 'may be
        UNBOUND', in which case the constraint might silently not fire).
        """
        if isinstance(ref, SessionBinding):
            return None
        name = ref.property_name
        base: Optional[Tuple[object, ...]]
        if name in decided:
            base = (decided[name],)
        elif name in given:
            try:
                prop = cdo.find_property(name)
            except PropertyError:
                return None
            if not isinstance(prop, Requirement):
                return None
            base = (given[name],)
        else:
            try:
                prop = cdo.find_property(name)
            except PropertyError:
                return None
            if name in derived_targets:
                narrowed = env.get(name) if env is not None else None
                if isinstance(narrowed, FiniteSet):
                    base = narrowed.values
                else:
                    return None
            elif isinstance(prop, Requirement):
                return None  # un-entered: may be UNBOUND
            elif isinstance(prop, BehavioralDescription):
                if prop.description is None:
                    return None
                base = (prop.description,)
            elif isinstance(prop, DesignIssue):
                if prop.default is None:
                    return None  # undecided sessions leave it UNBOUND
                if prop.generalized:
                    owner = cdo.find_property_owner(name)
                    pinned = (None if owner is None or owner is cdo
                              else self._pinned_option(cdo, owner))
                    if pinned is None or pinned == prop.default:
                        base = (prop.default,)
                    else:
                        # a session may have descended through ``pinned``
                        # or started below the owner with the default
                        base = (pinned, prop.default)
                else:
                    vals = finite_values(prop.domain, self._context(cdo, given))
                    if vals is None or len(vals) > MAX_FINITE:
                        return None
                    if not any(v == prop.default for v in vals):
                        vals = vals + (prop.default,)
                    base = vals
            else:
                return None
        if ref.selectors:
            out = []
            for value in base:
                try:
                    out.append(self.layer.selectors.apply_chain(
                        ref.selectors, value))
                except Exception:
                    return None
            base = tuple(out)
        return base

    def _guaranteed_results(self, cdo: ClassOfDesignObjects,
                            constraint: ConsistencyConstraint,
                            decided: Mapping[str, object],
                            derived_targets: Set[str],
                            given: Optional[Mapping[str, object]] = None,
                            env: Optional[Mapping[str, AbstractValue]] = None
                            ) -> Optional[List[RelationResult]]:
        """Evaluate ``constraint`` on every combination of its aliases'
        guaranteed pools, or ``None`` when any pool is unbounded, the
        product exceeds :data:`MAX_COMBINATIONS`, or evaluation raises.
        """
        given = self.given if given is None else given
        relation = constraint.relation
        if isinstance(relation, EstimatorInvocation):
            return None  # never invoke tools during static analysis
        aliases = sorted(set(constraint.independents)
                         | set(constraint.shorts)
                         | set(getattr(relation, "requires", ())))
        pools: List[Tuple[object, ...]] = []
        total = 1
        for alias in aliases:
            ref = (constraint.independents.get(alias)
                   or constraint.shorts.get(alias)
                   or constraint.dependents.get(alias))
            if ref is None:
                return None
            pool = self._pool(cdo, ref, decided, derived_targets, given, env)
            if not pool:
                return None
            total *= len(pool)
            if total > MAX_COMBINATIONS:
                return None
            pools.append(pool)
        results: List[RelationResult] = []
        for combo in itertools.product(*pools):
            try:
                results.append(relation.evaluate(dict(zip(aliases, combo)),
                                                 tools=self.tools))
            except Exception:
                return None  # not total on the pool: widen
        return results

    # -- dead-branch proofs --------------------------------------------
    def _issues_at(self, cdo: ClassOfDesignObjects) -> List[DesignIssue]:
        out = []
        for prop in cdo.all_properties():
            if not isinstance(prop, DesignIssue):
                continue
            if prop.generalized and cdo.find_property_owner(prop.name) is not cdo:
                continue  # addressable only at its owner
            out.append(prop)
        return out

    def _dead_proofs(self, cdo: ClassOfDesignObjects,
                     applicable: Sequence[ConsistencyConstraint]
                     ) -> List[DeadBranchProof]:
        proofs: List[DeadBranchProof] = []
        derived_targets = self._derived_targets(applicable)
        ctx = self._context(cdo)
        checkable = [c for c in applicable
                     if not isinstance(c.relation,
                                       (EstimatorInvocation, EliminateOptions))]
        eliminators = [c for c in applicable
                       if isinstance(c.relation, EliminateOptions)]
        reqs = self._visible_requirements(cdo)
        for issue in self._issues_at(cdo):
            options = finite_values(issue.domain, ctx)
            if options is None:
                continue  # cannot enumerate completely: widen
            for option in options:
                proof = self._prove_dead(cdo, issue, option, checkable,
                                         eliminators, derived_targets, reqs)
                if proof is not None:
                    proofs.append(proof)
        return proofs

    def _prove_dead(self, cdo: ClassOfDesignObjects, issue: DesignIssue,
                    option: object,
                    checkable: Sequence[ConsistencyConstraint],
                    eliminators: Sequence[ConsistencyConstraint],
                    derived_targets: Set[str],
                    reqs: Sequence[Tuple[Requirement, object]]
                    ) -> Optional[DeadBranchProof]:
        qname = cdo.qualified_name
        decided = {issue.name: option}
        for constraint in checkable:
            results = self._guaranteed_results(cdo, constraint, decided,
                                               derived_targets)
            if results and all(not r.ok for r in results):
                detail = next((r.explanation for r in results
                               if r.explanation), constraint.doc)
                return DeadBranchProof(
                    qname, issue.name, option, "rejected-decision",
                    constraint.name,
                    f"every reachable session state violates "
                    f"{constraint.name}: {detail}")
        pair = (issue.name, option)
        for constraint in eliminators:
            results = self._guaranteed_results(cdo, constraint, {},
                                               derived_targets)
            if results and all(any(p == pair for p in r.eliminated)
                               for r in results):
                return DeadBranchProof(
                    qname, issue.name, option, "eliminated-option",
                    constraint.name,
                    f"{constraint.name} eliminates this option under "
                    f"every reachable session state")
        if issue.generalized:
            try:
                child = cdo.child_for_option(option)
            except HierarchyError:
                return None  # unspecialized option: nothing to prove
            ids = self.index.prune_ids(
                self.index.subtree_ids(child.qualified_name), {},
                self._visible_requirements(child), MissingPolicy.EXCLUDE)
        else:
            ids = self.index.prune_ids(
                self.index.subtree_ids(qname), decided, reqs,
                MissingPolicy.EXCLUDE)
        if not ids:
            return DeadBranchProof(
                qname, issue.name, option, "empty-region", "",
                "no reusable core under this option satisfies the "
                "given requirements")
        return None

    # -- feasible regions ----------------------------------------------
    def _region(self, cdo: ClassOfDesignObjects,
                applicable: Sequence[ConsistencyConstraint],
                proofs: Sequence[DeadBranchProof]) -> CdoRegion:
        ctx = self._context(cdo)
        env: Dict[str, AbstractValue] = {}
        for prop in cdo.all_properties():
            if isinstance(prop, BehavioralDescription):
                continue
            domain = getattr(prop, "domain", None)
            if domain is None:
                continue
            env[prop.name] = abstract_of(domain, ctx)
        initial = dict(env)
        for name, value in ctx.items():
            if name in env:
                env[name] = meet(env[name], FiniteSet((value,)))
        widened: Set[str] = set()
        # proved-dead options leave the decidable/enterable set
        for proof in proofs:
            if proof.kind == "empty-region":
                continue  # index-based fact, not a value-lattice fact
            current = env.get(proof.issue)
            if isinstance(current, FiniteSet):
                env[proof.issue] = FiniteSet(tuple(
                    v for v in current.values if not v == proof.option))
        derived_targets = self._derived_targets(applicable)
        checkable = [c for c in applicable
                     if not isinstance(c.relation,
                                       (EstimatorInvocation, EliminateOptions))]
        formulas = [c for c in applicable if isinstance(c.relation, Formula)]
        for c in applicable:
            rel = c.relation
            if isinstance(rel, EstimatorInvocation):
                ref = c.dependents.get(rel.target)
                if isinstance(ref, PropertyPath):
                    widened.add(ref.property_name)
        # un-entered requirements: which values could still be entered?
        for prop in cdo.all_properties():
            if not isinstance(prop, Requirement) or prop.name in self.given:
                continue
            vals = finite_values(prop.domain, ctx)
            if vals is None or len(vals) > MAX_REQUIREMENT_PROBE:
                continue
            alive = []
            for value in vals:
                rejected = False
                for c in checkable:
                    results = self._guaranteed_results(
                        cdo, c, {prop.name: value}, derived_targets, env=env)
                    if results and all(not r.ok for r in results):
                        rejected = True
                        break
                if not rejected:
                    alive.append(value)
            if prop.name in env:
                env[prop.name] = meet(env[prop.name], FiniteSet(tuple(alive)))
        # exact narrowing through quantitative relations, to fixpoint
        rounds = 0
        changed = True
        while changed and rounds <= len(formulas) + 1:
            changed = False
            rounds += 1
            for c in formulas:
                rel = c.relation
                assert isinstance(rel, Formula)
                ref = c.dependents.get(rel.target)
                if not isinstance(ref, PropertyPath) or ref.selectors:
                    continue
                tname = ref.property_name
                results = self._guaranteed_results(cdo, c, {},
                                                   derived_targets, env=env)
                if results is None:
                    widened.add(tname)
                    continue
                derived = FiniteSet(tuple(r.derived.get(rel.target)
                                          for r in results if r.ok))
                new = meet(env.get(tname, TOP), derived)
                if new != env.get(tname, TOP):
                    env[tname] = new
                    changed = True
        survivors = self.index.prune_ids(
            self.index.subtree_ids(cdo.qualified_name), {},
            self._visible_requirements(cdo), MissingPolicy.EXCLUDE)
        merit_intervals = {
            metric: Interval(float(lo), float(hi))
            for metric, (lo, hi) in sorted(
                self.index.merit_ranges_for(survivors, self.metrics).items())}
        narrowed = tuple(sorted(
            n for n, v in env.items() if v != initial.get(n, TOP)))
        return CdoRegion(
            qname=cdo.qualified_name, core_count=len(survivors),
            merit_intervals=merit_intervals, properties=env,
            narrowed=narrowed, widened=tuple(sorted(widened)),
            empty=any(is_empty(v) for v in env.values()))

    # -- unsat cores ----------------------------------------------------
    _Element = Tuple[str, str, object]

    def _elements(self, region: ClassOfDesignObjects) -> List[_Element]:
        elements: List[_Analyzer._Element] = []
        for name in sorted(self.given):
            if self._sees_requirement(region, name):
                elements.append(("requirement", name, self.given[name]))
        for c in self.layer.applicable_constraints(region):
            if not isinstance(c.relation, EstimatorInvocation):
                elements.append(("constraint", c.name, c))
        return elements

    def _infeasible(self, region: ClassOfDesignObjects,
                    elements: Sequence[_Element],
                    derived_targets: Set[str]) -> bool:
        given = {e[1]: e[2] for e in elements if e[0] == "requirement"}
        survivors = self.index.prune_ids(
            self.index.subtree_ids(region.qualified_name), {},
            self._visible_requirements(region, given), MissingPolicy.EXCLUDE)
        if not survivors:
            return True
        for element in elements:
            if element[0] != "constraint":
                continue
            constraint = element[2]
            assert isinstance(constraint, ConsistencyConstraint)
            if isinstance(constraint.relation, EliminateOptions):
                continue  # eliminations never hard-fail
            results = self._guaranteed_results(region, constraint, {},
                                               derived_targets, given=given)
            if results and all(not r.ok for r in results):
                return True
        return False

    def _unsat_cores(self, origin: Optional[ClassOfDesignObjects]
                     ) -> Tuple[List[UnsatCore], List[str]]:
        if origin is not None:
            regions = [origin]
        else:
            regions = []
            for root in self.layer.roots:
                node = root
                if self.given:
                    node = next(
                        (c for c in root.walk()
                         if all(self._sees_requirement(c, n)
                                for n in self.given)), root)
                regions.append(node)
        cores: List[UnsatCore] = []
        infeasible: List[str] = []
        for region in regions:
            applicable = self.layer.applicable_constraints(region)
            derived_targets = self._derived_targets(applicable)
            elements = self._elements(region)
            if not self._infeasible(region, elements, derived_targets):
                continue
            infeasible.append(region.qualified_name)
            core = list(elements)
            for element in list(core):
                trial = [e for e in core if e is not element]
                if self._infeasible(region, trial, derived_targets):
                    core = trial
            cores.append(self._render_core(region, core))
        return cores, infeasible

    def _render_core(self, region: ClassOfDesignObjects,
                     core: Sequence[_Element]) -> UnsatCore:
        req_items = tuple((e[1], e[2]) for e in core if e[0] == "requirement")
        con_items = tuple(e[1] for e in core if e[0] == "constraint")
        hints: List[str] = []
        for name, value in req_items:
            try:
                detail = region.find_property(name).describe()
            except PropertyError:  # pragma: no cover - defensive
                detail = name
            hints.append(f"relax or drop requirement {name}={value!r} "
                         f"({detail})")
        for name in con_items:
            constraint = self.layer.constraints.get(name)
            hints.append(f"constraint {name}: {constraint.doc}")
        if not hints:
            hints.append(f"no reusable cores are registered under "
                         f"{region.qualified_name}")
        return UnsatCore(region=region.qualified_name,
                         requirements=req_items, constraints=con_items,
                         hints=tuple(hints))

    # -- stratification -------------------------------------------------
    def _strata(self) -> Tuple[Stratum, ...]:
        from repro.core.lint.rules_constraints import _tarjan_sccs
        graph: Dict[str, Set[str]] = {}
        estimator_derived: Set[str] = set()
        for c in self.constraints:
            sources = c.independent_property_names()
            targets = c.dependent_property_names()
            if isinstance(c.relation, EstimatorInvocation):
                estimator_derived.update(targets)
            for name in sources + targets:
                graph.setdefault(name, set())
            for s in sources:
                graph[s].update(targets)
        if not graph:
            return ()
        sccs = _tarjan_sccs(graph)
        comp_of = {n: i for i, comp in enumerate(sccs) for n in comp}
        preds: Dict[int, Set[int]] = {i: set() for i in range(len(sccs))}
        for s, targets in graph.items():
            for t in targets:
                if comp_of[s] != comp_of[t]:
                    preds[comp_of[t]].add(comp_of[s])
        # Longest-path levels over the (acyclic) SCC condensation.
        level: Dict[int, int] = {}
        for _ in range(len(sccs)):
            stable = True
            for i in range(len(sccs)):
                new = 1 + max((level.get(p, 0) for p in preds[i]), default=0)
                if level.get(i) != new:
                    level[i] = new
                    stable = False
            if stable:
                break
        by_level: Dict[int, List[str]] = {}
        for i, comp in enumerate(sccs):
            by_level.setdefault(level[i], []).extend(comp)
        strata = []
        for lvl in sorted(by_level):
            names = tuple(sorted(by_level[lvl]))
            members = set(names)
            fan_out = sum(len([t for t in graph[n] if t not in members])
                          for n in names)
            unstable_props = tuple(sorted(
                n for n in names if n in estimator_derived and graph[n]))
            strata.append(Stratum(index=lvl, properties=names,
                                  fan_out=fan_out,
                                  unstable=bool(unstable_props),
                                  unstable_properties=unstable_props))
        return tuple(strata)

    # -- entry point ----------------------------------------------------
    def run(self) -> VerifyAnalysis:
        origin: Optional[ClassOfDesignObjects] = None
        if self.start:
            origin = self.layer.cdo(self.start)
            scope = list(origin.walk())
        else:
            scope = list(self.layer.all_cdos())
        regions: Dict[str, CdoRegion] = {}
        proofs: List[DeadBranchProof] = []
        for cdo in scope:
            applicable = self.layer.applicable_constraints(cdo)
            cdo_proofs = self._dead_proofs(cdo, applicable)
            proofs.extend(cdo_proofs)
            regions[cdo.qualified_name] = self._region(cdo, applicable,
                                                       cdo_proofs)
        unsat_cores, infeasible = self._unsat_cores(origin)
        return VerifyAnalysis(
            layer_name=self.layer.name, epoch=self.layer.epoch,
            requirements=tuple(sorted(self.given.items(),
                                      key=lambda kv: kv[0])),
            start=self.start, regions=regions, proofs=tuple(proofs),
            unsat_cores=tuple(unsat_cores),
            infeasible_regions=tuple(infeasible),
            strata=self._strata())


# ----------------------------------------------------------------------
# Epoch-cached entry point
# ----------------------------------------------------------------------

def epoch_cached(layer: "DesignSpaceLayer",
                 requirements: Sequence[Tuple[str, object]],
                 start: Optional[str], slot: str,
                 compute: Callable[[Given], object]) -> object:
    """``compute(given)`` for ``layer``, kept in the layer's memo under
    ``(slot, given, start)``.

    ``given`` is ``requirements`` sorted by name, so requirement order
    does not split an entry.  Any mutation moves the epoch and drops
    the entry (see :meth:`DesignSpaceLayer.memo`), and unhashable
    requirement values skip it.
    """
    given: Given = tuple(sorted(dict(requirements).items(),
                                key=lambda kv: kv[0]))
    return layer.memo(("verify", slot, given, start),
                      lambda: compute(given))


def analyze_layer(layer: "DesignSpaceLayer",
                  requirements: Sequence[Tuple[str, object]] = (),
                  start: Optional[str] = None) -> VerifyAnalysis:
    """Run (or replay) the verifier for ``layer``.

    Results are memoized per ``(layer.epoch, requirements, start)`` (see
    :func:`epoch_cached`), so a repeated verify of an unchanged layer is
    a dictionary lookup.
    """
    return epoch_cached(  # type: ignore[return-value]
        layer, requirements, start, "analysis",
        lambda given: _Analyzer(layer, given, start).run())
