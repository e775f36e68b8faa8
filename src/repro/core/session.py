"""Exploration sessions: conceptual design over a design space layer.

A session walks the generalization/specialization hierarchy the way the
paper's designer does in Sec 5: enter requirement values from the system
specification, address design issues in an order consistent with the
layer's consistency constraints, descend into specialized CDOs when a
*generalized* issue is decided, and at every step observe the surviving
cores and their figure-of-merit ranges.

The session enforces the CC semantics of Sec 4:

* an issue appearing in a CC's dependent set cannot be addressed before
  the CC's independents are bound (partial ordering);
* deciding a combination a CC's relation rejects raises
  :class:`~repro.errors.ConstraintViolation`;
* options eliminated by ``EliminateOptions`` relations are withdrawn from
  the issue's available options;
* revising an independent marks every dependent *stale* — it "needs to be
  re-assessed" — and recomputes derived values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from repro.core.cdo import ClassOfDesignObjects
from repro.core.constraints import (
    UNBOUND,
    ConsistencyConstraint,
    SessionBinding,
)
from repro.core.designobject import DesignObject
from repro.core.index import CoreIndex, IdSet, IndexedPruneReport
from repro.core.layer import DesignSpaceLayer
from repro.core.obs import events as _ev
from repro.core.path import PropertyPath
from repro.core.properties import (
    BehavioralDescription,
    DesignIssue,
    Property,
    Requirement,
)
from repro.core.pruning import (
    MissingPolicy,
    _match_decision,
    names_digest,
)
from repro.errors import (
    ConstraintError,
    ConstraintViolation,
    PropertyError,
    SessionError,
)


#: Traced pruning payloads are *bounded*: above this survivor count the
#: per-core digest and merit ranges are omitted from ``prune`` events
#: (computing them would scale with the library and blow the tracing
#: overhead budget).  The survivor count itself is free, always
#: recorded, and always verified on replay.
TRACE_SET_LIMIT = 4096


class OptionInfo:
    """What the layer can tell the designer about one option of an issue.

    ``ranges`` (metric -> (min, max) over the option's candidates) may be
    supplied eagerly, or as ``ranges_factory``: a thunk run on the first
    read of :attr:`ranges`, whose result is kept.  An automated walk
    that only counts candidates never pays for them.

    ``candidate_ids`` is the option's candidate id set in ``index``, the
    immutable :class:`~repro.core.index.CoreIndex` it was computed over,
    and ``decided_ids`` the ids the decisions alone leave there, before
    the requirements (all three None for an eliminated option), so a
    walk can bound the option without its ranges and collect the
    position it leads to without a prune.
    """

    __slots__ = ("option", "eliminated", "elimination_reason",
                 "candidate_count", "candidate_ids", "decided_ids", "index",
                 "_ranges", "_ranges_factory")

    def __init__(self, option: object, eliminated: bool,
                 elimination_reason: str, candidate_count: int,
                 ranges: Optional[Dict[str, Tuple[float, float]]] = None,
                 ranges_factory: Optional[
                     Callable[[], Dict[str, Tuple[float, float]]]] = None,
                 candidate_ids: Optional[IdSet] = None,
                 index: Optional[CoreIndex] = None,
                 decided_ids: Optional[IdSet] = None):
        self.option = option
        self.eliminated = eliminated
        self.elimination_reason = elimination_reason
        self.candidate_count = candidate_count
        self.candidate_ids = candidate_ids
        self.decided_ids = decided_ids
        self.index = index
        self._ranges = ranges if ranges is not None else (
            None if ranges_factory is not None else {})
        self._ranges_factory = ranges_factory

    @property
    def ranges(self) -> Dict[str, Tuple[float, float]]:
        if self._ranges is None:
            self._ranges = self._ranges_factory()
        return self._ranges

    def _fields(self) -> tuple:
        return (self.option, self.eliminated, self.elimination_reason,
                self.candidate_count, self.ranges)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # mutable, like before

    def __repr__(self) -> str:
        return ("OptionInfo(option={!r}, eliminated={!r}, "
                "elimination_reason={!r}, candidate_count={!r}, "
                "ranges={!r})".format(*self._fields()))


class DecisionOutcome:
    """What one committed decision did to the design space.

    Returned by :meth:`ExplorationSession.decide`.  The pruning effect
    (how many cores the decision eliminated, and which) is computed
    *lazily*, on the first read, from an immutable
    :class:`~repro.core.index.CoreIndex` snapshot and the session state
    (position, decisions, requirements) captured at commit time, so the
    first read and every later read see byte-identical numbers even if
    the layer or the session moved on in between.  A caller that never
    reads the outcome pays for none of it.
    """

    def __init__(self, issue: str, option: object, generalized: bool,
                 before: "_Filters", after: "_Filters",
                 stale: Tuple[str, ...],
                 index: CoreIndex, policy: MissingPolicy):
        #: The design issue the decision addressed.
        self.issue = issue
        self.option = option
        self.generalized = generalized
        self.cdo_before = before[0].qualified_name
        #: Session position after the decision (descended when generalized).
        self.cdo = after[0].qualified_name
        #: Previously-addressed dependents marked stale by this decision.
        self.stale = stale
        self._index = index
        self._policy = policy
        self._before = before
        self._after = after
        self._ids_memo: Optional[Tuple[IdSet, IdSet]] = None

    def _survivor_ids(self, state: "_Filters") -> IdSet:
        cdo, decisions, requirements = state
        index = self._index
        return index.prune_ids(
            index.subtree_ids(cdo.qualified_name),
            _filter_decisions(cdo, decisions),
            _requirement_pairs(cdo, requirements), self._policy)

    def _ids(self) -> Tuple[IdSet, IdSet]:
        if self._ids_memo is None:
            self._ids_memo = (self._survivor_ids(self._before),
                              self._survivor_ids(self._after))
        return self._ids_memo

    @property
    def survivors_before(self) -> int:
        """Candidate-core count just before the decision."""
        return len(self._ids()[0])

    @property
    def survivors_after(self) -> int:
        """Candidate-core count with the decision in force."""
        return len(self._ids()[1])

    @property
    def eliminated_count(self) -> int:
        """How many cores this decision (alone) pruned away."""
        before, after = self._ids()
        return len(before - after)

    @property
    def eliminated(self) -> Dict[str, str]:
        """Core name -> reason, for the cores this decision eliminated.

        Reasons always name the triggering design issue, and — being
        derived from the commit-time snapshot — are identical no matter
        when or how often they are read.
        """
        before, after = self._ids()
        out: Dict[str, str] = {}
        for i in before - after:
            core = self._index.cores[i]
            reason = None
            if not self.generalized:
                reason = _match_decision(core, self.issue, self.option,
                                         self._policy)
            if reason is None:
                reason = (f"outside {self.cdo} (issue {self.issue!r} "
                          f"selected option {self.option!r})")
            out[core.name] = reason
        return out

    def describe(self) -> str:
        return (f"decision {self.issue} = {self.option!r}: "
                f"{self.survivors_before} -> {self.survivors_after} "
                f"candidates ({self.eliminated_count} eliminated)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DecisionOutcome {self.describe()}>"


#: A session position with the decisions and requirements in force
#: there, as raw name -> value dicts; filtered on demand.
_Filters = Tuple[ClassOfDesignObjects, Dict[str, object], Dict[str, object]]


def _requirement_pairs(cdo: ClassOfDesignObjects,
                       requirements: Mapping[str, object]
                       ) -> List[Tuple[Requirement, object]]:
    pairs: List[Tuple[Requirement, object]] = []
    for name, value in requirements.items():
        prop = cdo.find_property(name)
        assert isinstance(prop, Requirement)
        pairs.append((prop, value))
    return pairs


def _filter_decisions(cdo: ClassOfDesignObjects,
                      decisions: Mapping[str, object]) -> Dict[str, object]:
    """Decisions used for core filtering at ``cdo``.

    Generalized decisions are realized by subtree indexing (the session
    already descended), so they are excluded from the property filter —
    a hard core indexed under ``...Hardware`` need not re-document
    "Implementation Style".
    """
    out: Dict[str, object] = {}
    for name, option in decisions.items():
        prop = cdo.find_property(name)
        if isinstance(prop, DesignIssue) and prop.generalized:
            continue
        out[name] = option
    return out


@dataclass
class _State:
    """Snapshot of all mutable session state (for undo and checkpoints);
    ``derived`` and ``eliminations`` are the constraint results at layer
    ``epoch``."""

    cdo_name: str
    requirements: Dict[str, object]
    decisions: Dict[str, object]
    derived: Dict[str, object]
    eliminations: Dict[str, List[Tuple[object, str]]]
    stale: Set[str]
    log: List[str]
    epoch: int


class ExplorationSession:
    """One designer's traversal of a design space layer."""

    def __init__(self, layer: DesignSpaceLayer,
                 start: Union[str, ClassOfDesignObjects],
                 merit_metrics: Sequence[str] = ("area", "latency_ns"),
                 missing_policy: MissingPolicy = MissingPolicy.EXCLUDE):
        self.layer = layer
        self._cdo = layer.cdo(start) if isinstance(start, str) else start
        #: Metrics summarized in range reports.
        self.merit_metrics = tuple(merit_metrics)
        self.missing_policy = missing_policy
        self._requirements: Dict[str, object] = {}
        self._decisions: Dict[str, object] = {}
        # The constraint results: each refresh replaces both dicts and
        # none mutates them, so snapshots share them.
        self._derived: Dict[str, object] = {}
        self._eliminations: Dict[str, List[Tuple[object, str]]] = {}
        self._stale: Set[str] = set()
        self._log: List[str] = []
        self._history: List[_State] = []
        self._checkpoints: Dict[str, _State] = {}
        #: Recorder this session last announced itself to (see ``_obs``).
        self._obs_recorder: object = None
        self._obs_session = 0
        #: Layer epoch the constraint results were computed at.
        self._evaluated_at: Optional[int] = None
        self._refresh_constraints()

    # ------------------------------------------------------------------
    # read-only views
    # ------------------------------------------------------------------
    @property
    def current_cdo(self) -> ClassOfDesignObjects:
        return self._cdo

    @property
    def decisions(self) -> Mapping[str, object]:
        return dict(self._decisions)

    @property
    def requirement_values(self) -> Mapping[str, object]:
        return dict(self._requirements)

    @property
    def derived_values(self) -> Mapping[str, object]:
        self._current()
        return dict(self._derived)

    @property
    def stale_properties(self) -> Set[str]:
        return set(self._stale)

    @property
    def log(self) -> Sequence[str]:
        return tuple(self._log)

    def context(self) -> Dict[str, object]:
        """Property-name -> value mapping used by dependent domains."""
        self._current()
        ctx: Dict[str, object] = {}
        ctx.update(self._derived)
        ctx.update(self._requirements)
        ctx.update(self._decisions)
        return ctx

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def _obs(self):
        """The layer's recorder; announces this session on first traced use.

        The ``session_open`` payload carries the session's *current*
        position, metrics and accumulated requirement/decision state
        (in insertion order), so a trace switched on mid-session is
        still replayable: :func:`repro.core.obs.replay.replay_trace`
        primes that state before re-applying the recorded events.
        """
        obs = self.layer.observer
        if obs.enabled and obs is not self._obs_recorder:
            self._obs_recorder = obs
            self._obs_session = obs.next_session()
            obs.emit(_ev.SESSION_OPEN, session=self._obs_session,
                     layer=self.layer.name,
                     cdo=self._cdo.qualified_name,
                     metrics=list(self.merit_metrics),
                     missing_policy=self.missing_policy.value,
                     requirements=dict(self._requirements),
                     decisions=dict(self._decisions))
        return obs

    @property
    def trace(self) -> Tuple:
        """Trace events visible to this session — its own, plus
        session-less infrastructure events (index rebuilds, lint runs).
        Empty when tracing is off."""
        obs = self.layer.observer
        if not obs.enabled or obs is not self._obs_recorder:
            return ()
        sid = self._obs_session
        return tuple(e for e in obs.events
                     if e.payload.get("session", sid) == sid)

    # ------------------------------------------------------------------
    # constraint machinery
    # ------------------------------------------------------------------
    def applicable_constraints(self) -> List[ConsistencyConstraint]:
        """Constraints that apply at the current position, as the layer
        memoizes them; the list is shared, not a copy."""
        return self.layer.applicable_constraints(self._cdo)

    def _bind_ref(self, ref: Union[PropertyPath, SessionBinding]) -> object:
        """Resolve one constraint reference to a value, or UNBOUND."""
        if isinstance(ref, SessionBinding):
            return ref.fn(self)
        name = ref.property_name
        if name in self._decisions:
            value: object = self._decisions[name]
        elif name in self._requirements:
            value = self._requirements[name]
        elif name in self._derived:
            value = self._derived[name]
        else:
            try:
                prop = self._cdo.find_property(name)
            except PropertyError:
                return UNBOUND
            if isinstance(prop, BehavioralDescription) and prop.description is not None:
                value = prop.description
            elif isinstance(prop, DesignIssue) and prop.default is not None:
                value = prop.default
            else:
                return UNBOUND
        if ref.selectors:
            value = self.layer.selectors.apply_chain(ref.selectors, value)
        return value

    def _bindings_for(self, constraint: ConsistencyConstraint
                      ) -> Optional[Dict[str, object]]:
        """Bind the aliases of ``constraint``; None when incomplete.

        Independents and shorts must all resolve; dependent aliases are
        included when a value is available (a decided option) and
        omitted otherwise — relations declare via their ``requires``
        lists whether they need them.
        """
        bindings: Dict[str, object] = {}
        required = {**constraint.independents, **constraint.shorts}
        for alias, ref in required.items():
            value = self._bind_ref(ref)
            if value is UNBOUND:
                return None
            bindings[alias] = value
        for alias, ref in constraint.dependents.items():
            value = self._bind_ref(ref)
            if value is not UNBOUND:
                bindings[alias] = value
        return bindings

    def _independents_bound(self, constraint: ConsistencyConstraint) -> bool:
        refs = {**constraint.independents, **constraint.shorts}
        return all(self._bind_ref(ref) is not UNBOUND for ref in refs.values())

    def _refresh_constraints(self, enforce: bool = True) -> None:
        """Re-evaluate every applicable, fully-bound constraint.

        Updates derived values and option eliminations; raises
        :class:`ConstraintViolation` for rejected combinations when
        ``enforce``.  The pass counts as current from its start, so a
        binding that reads the session during it starts no second one.
        """
        previous, self._evaluated_at = self._evaluated_at, self.layer.epoch
        try:
            self._derived, self._eliminations = self._evaluate(enforce)
        except BaseException:
            self._evaluated_at = previous
            raise

    def _evaluate(self, enforce: bool
                  ) -> Tuple[Dict[str, object],
                             Dict[str, List[Tuple[object, str]]]]:
        """Derived values and eliminations of one constraint pass."""
        obs = self._obs
        tools = self.layer.tools
        if obs.enabled:
            # One wrap per refresh: every estimator run inside a CC
            # relation below records an ``estimate_invoked`` span nested
            # under its constraint's span.
            tools = obs.wrap_tools(tools)
        derived: Dict[str, object] = {}
        eliminated: Dict[str, List[Tuple[object, str]]] = {}
        for constraint in self.applicable_constraints():
            bindings = self._bindings_for(constraint)
            if bindings is None:
                continue
            with obs.span(_ev.CONSTRAINT_FIRED, session=self._obs_session,
                          constraint=constraint.name) as span:
                try:
                    result = constraint.relation.evaluate(bindings, tools)
                except ConstraintError:
                    # The relation needs aliases this CC does not bind yet.
                    result = None
                    span.note(outcome="unbound")
                else:
                    span.note(ok=result.ok)
            if result is None:
                continue
            if not result.ok and enforce:
                raise ConstraintViolation(constraint.name,
                                          result.explanation or constraint.doc)
            for alias, value in result.derived.items():
                target = self._alias_to_property(constraint, alias)
                derived[target] = value
            for prop_name, option in result.eliminated:
                eliminated.setdefault(prop_name, []).append(
                    (option, f"{constraint.name}: {constraint.doc}"))
        return derived, eliminated

    def _current(self) -> None:
        """Run the constraints again if the layer changed since their last
        pass (a tool, constraint or library edit), so no read sees the
        old layer's derived values or eliminations."""
        if self._evaluated_at != self.layer.epoch:
            self._refresh_constraints(enforce=False)

    @staticmethod
    def _alias_to_property(constraint: ConsistencyConstraint,
                           alias: str) -> str:
        ref = constraint.dependents.get(alias)
        if isinstance(ref, PropertyPath):
            return ref.property_name
        return alias

    def eliminations_for(self, issue_name: str) -> List[Tuple[object, str]]:
        """Options of ``issue_name`` currently eliminated, with reasons."""
        self._current()
        return list(self._eliminations.get(issue_name, []))

    def pending_constraints(self) -> List[ConsistencyConstraint]:
        """Applicable constraints whose independent sets are not bound."""
        return [c for c in self.applicable_constraints()
                if not self._independents_bound(c)]

    def blocking_constraints(self, issue_name: str
                             ) -> List[ConsistencyConstraint]:
        """Constraints that gate ``issue_name`` and are not yet bound —
        the designer must address their independents first (paper Sec 4)."""
        return [c for c in self.applicable_constraints()
                if issue_name in c.dependent_property_names()
                and not self._independents_bound(c)]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _snapshot(self) -> _State:
        return _State(
            cdo_name=self._cdo.qualified_name,
            requirements=dict(self._requirements),
            decisions=dict(self._decisions),
            derived=self._derived,
            eliminations=self._eliminations,
            stale=set(self._stale),
            log=list(self._log),
            epoch=self._evaluated_at,
        )

    def _checkpoint(self) -> None:
        self._history.append(self._snapshot())

    def _refresh_or_roll_back(self, enforce: bool = True) -> None:
        """Evaluate the constraints for the step just checkpointed; if
        anything raises (a violation, a failing relation or tool), put
        the checkpoint back and re-raise."""
        try:
            self._refresh_constraints(enforce=enforce)
        except BaseException:
            self._restore(self._history.pop())
            raise

    def undo(self) -> None:
        """Revert the last mutating operation."""
        obs = self._obs
        if not self._history:
            raise SessionError("nothing to undo")
        self._restore(self._history.pop())
        if obs.enabled:
            obs.emit(_ev.UNDO, session=self._obs_session,
                     cdo=self._cdo.qualified_name)

    def _restore(self, state: "_State") -> None:
        """Put ``state`` back; its constraint results too, unless the
        layer changed since they were computed (a tool, constraint or
        library edit), in which case the constraints run afresh."""
        self._cdo = self.layer.cdo(state.cdo_name)
        self._requirements = dict(state.requirements)
        self._decisions = dict(state.decisions)
        self._stale = set(state.stale)
        self._log = list(state.log)
        if state.epoch == self.layer.epoch:
            self._derived = state.derived
            self._eliminations = state.eliminations
            self._evaluated_at = state.epoch
        else:
            self._refresh_constraints(enforce=False)

    def checkpoint(self, tag: str) -> None:
        """Save the current state under a name for branched what-ifs.

        Unlike :meth:`undo`'s linear history, named checkpoints let the
        designer fork: explore one branch, ``restore`` the checkpoint,
        explore another, and compare (the paper's trade-off exploration
        is exactly this loop).
        """
        obs = self._obs
        if not tag:
            raise SessionError("checkpoint tag must be non-empty")
        if obs.enabled:
            obs.emit(_ev.CHECKPOINT, session=self._obs_session, tag=tag)
        self._checkpoints[tag] = self._snapshot()

    def restore(self, tag: str) -> None:
        """Return to a named checkpoint (linear undo history is kept,
        with the restore itself undoable)."""
        obs = self._obs
        if tag not in self._checkpoints:
            raise SessionError(
                f"no checkpoint {tag!r}; saved: {sorted(self._checkpoints)}")
        self._checkpoint()
        self._restore(self._checkpoints[tag])
        self._log.append(f"restored checkpoint {tag!r}")
        if obs.enabled:
            obs.emit(_ev.RESTORE, session=self._obs_session, tag=tag,
                     cdo=self._cdo.qualified_name)

    def checkpoints(self) -> List[str]:
        return sorted(self._checkpoints)

    def fork(self) -> "ExplorationSession":
        """An independent session at the same position and state.

        The clone shares the layer (and therefore its core indexes and
        epoch-keyed caches) but carries its own copies of requirements,
        decisions and staleness, with fresh undo history and no named
        checkpoints, so the clone and the original never perturb one
        another.
        """
        clone = ExplorationSession(
            self.layer, self._cdo,
            merit_metrics=self.merit_metrics,
            missing_policy=self.missing_policy)
        clone._requirements = dict(self._requirements)
        clone._decisions = dict(self._decisions)
        clone._stale = set(self._stale)
        clone._log = list(self._log)
        clone._refresh_constraints(enforce=False)
        return clone

    def set_requirement(self, name: str, value: object) -> None:
        """Enter a requirement value from the system specification."""
        obs = self._obs
        prop = self._cdo.find_property(name)
        if not isinstance(prop, Requirement):
            raise SessionError(
                f"{name!r} is a {type(prop).__name__}, not a requirement; "
                f"use decide() for design issues")
        prop.validate(value, self.context())
        self._checkpoint()
        self._requirements[name] = value
        self._refresh_or_roll_back()
        stale = self._mark_dependents_stale(name)
        self._stale.discard(name)
        self._log.append(f"requirement {name} = {value!r}")
        if obs.enabled:
            obs.emit(_ev.REQUIRE, session=self._obs_session,
                     name=name, value=value, stale=sorted(stale))

    def decide(self, name: str, option: object) -> DecisionOutcome:
        """Commit a design decision; descends when the issue is generalized.

        Returns a :class:`DecisionOutcome` summarizing the pruning effect
        (candidate counts before/after, eliminated cores with reasons
        naming this issue).  The outcome is computed lazily from a
        commit-time index snapshot and state, so reading it never
        perturbs — and is never perturbed by — the session's own queries.
        """
        obs = self._obs
        prop = self._cdo.find_property(name)
        if not isinstance(prop, DesignIssue):
            raise SessionError(
                f"{name!r} is a {type(prop).__name__}, not a design issue; "
                f"use set_requirement() for requirements")
        self._current()
        if prop.generalized and name in self._decisions:
            # Re-deciding a generalized issue would hop to a sibling
            # specialization while decisions made below the current one
            # are still in force; the designer must retract first.
            raise SessionError(
                f"generalized issue {name!r} is already decided "
                f"({self._decisions[name]!r}); retract() it to ascend "
                f"before choosing another option")
        blockers = self.blocking_constraints(name)
        if blockers:
            needs = sorted({p for c in blockers
                            for p in c.independent_property_names()})
            raise SessionError(
                f"issue {name!r} is ordered after unresolved independents "
                f"{needs} (constraints: {[c.name for c in blockers]})")
        prop.validate(option, self.context())
        for bad_option, reason in self.eliminations_for(name):
            if bad_option == option:
                raise ConstraintViolation(
                    reason.split(":")[0],
                    f"option {option!r} of {name!r} was eliminated: {reason}")
        snapshot_index = self.layer.libraries.index()
        cdo_before = self._cdo
        self._checkpoint()
        self._decisions[name] = option
        self._refresh_or_roll_back()
        stale = self._mark_dependents_stale(name)
        self._stale.discard(name)
        self._log.append(f"decision {name} = {option!r}")
        if prop.generalized:
            owner = self._cdo.find_property_owner(name)
            assert owner is not None
            child = owner.child_for_option(option)
            on_path = child is self._cdo or child.is_ancestor_of(self._cdo)
            if owner is self._cdo:
                self._cdo = child
                self._log.append(f"specialized to {child.qualified_name}")
                self._refresh_or_roll_back(enforce=False)
            elif not on_path:
                # The session already sits inside a *different* branch
                # of this ancestor's partition; accepting the decision
                # would contradict the current position.  Roll the whole
                # state back (constraints already ran with the rejected
                # decision, so derived values / eliminations / staleness
                # must not leak into subsequent queries).
                position = self._cdo.qualified_name
                self._restore(self._history.pop())
                raise SessionError(
                    f"option {option!r} of {name!r} selects "
                    f"{child.qualified_name}, but the exploration is "
                    f"inside {position}")
            # else: the option is the one this position already implies;
            # record it without moving.
        # The checkpoint pushed above already holds copies of the
        # state before the decision.
        saved = self._history[-1]
        outcome = DecisionOutcome(
            issue=name, option=option, generalized=prop.generalized,
            before=(cdo_before, saved.decisions, saved.requirements),
            after=(self._cdo, dict(self._decisions),
                   dict(self._requirements)),
            stale=tuple(sorted(stale)),
            index=snapshot_index, policy=self.missing_policy)
        if obs.enabled:
            obs.emit(_ev.DECIDE, session=self._obs_session,
                     issue=name, option=option,
                     generalized=prop.generalized,
                     cdo=self._cdo.qualified_name, stale=sorted(stale))
        return outcome

    def retract(self, name: str) -> None:
        """Withdraw a decision or requirement value.

        Retracting a generalized decision ascends back above the
        specialization it selected and drops every decision and
        requirement that only exists below that point.
        """
        obs = self._obs
        if name not in self._decisions and name not in self._requirements:
            raise SessionError(f"{name!r} has not been addressed")
        self._checkpoint()
        if name in self._requirements:
            del self._requirements[name]
            self._log.append(f"retracted requirement {name}")
        else:
            prop = self._cdo.find_property(name)
            del self._decisions[name]
            self._log.append(f"retracted decision {name}")
            if isinstance(prop, DesignIssue) and prop.generalized:
                owner = self._cdo.find_property_owner(name)
                assert owner is not None
                dropped = self._drop_below(owner)
                self._cdo = owner
                if dropped:
                    self._log.append(
                        f"dropped deeper bindings: {sorted(dropped)}")
                self._log.append(f"ascended to {owner.qualified_name}")
        self._mark_dependents_stale(name)
        self._refresh_constraints(enforce=False)
        if obs.enabled:
            obs.emit(_ev.RETRACT, session=self._obs_session, name=name,
                     cdo=self._cdo.qualified_name)

    def _drop_below(self, cdo: ClassOfDesignObjects) -> Set[str]:
        """Remove bindings of properties not visible from ``cdo``."""
        dropped: Set[str] = set()
        for store in (self._decisions, self._requirements):
            for name in list(store):
                if not cdo.has_property(name):
                    del store[name]
                    dropped.add(name)
        return dropped

    def revise(self, name: str, value: object) -> None:
        """Change an already-addressed property.

        Implements the paper's re-assessment rule: "when the independent
        set is modified, the dependent set needs to be re-assessed" —
        dependents of ``name`` become stale.
        """
        if name in self._requirements:
            self.set_requirement(name, value)
        elif name in self._decisions:
            prop = self._cdo.find_property(name)
            if isinstance(prop, DesignIssue) and prop.generalized:
                raise SessionError(
                    f"{name!r} is a generalized issue; retract() it to "
                    f"ascend, then decide the new option")
            self.decide(name, value)
        else:
            raise SessionError(f"{name!r} has not been addressed yet")

    def _mark_dependents_stale(self, name: str) -> Set[str]:
        """Mark dependents of ``name`` stale; returns the marked set
        (the per-action re-assessment fan-out the trace records)."""
        marked: Set[str] = set()
        for constraint in self.applicable_constraints():
            if name in constraint.independent_property_names():
                for dep in constraint.dependent_property_names():
                    if dep in self._decisions or dep in self._requirements:
                        self._stale.add(dep)
                        marked.add(dep)
        return marked

    def acknowledge(self, name: str) -> None:
        """Designer confirms a stale dependent is still valid."""
        obs = self._obs
        if name not in self._stale:
            raise SessionError(f"{name!r} is not stale")
        self._stale.discard(name)
        self._log.append(f"re-assessed {name}")
        if obs.enabled:
            obs.emit(_ev.ACKNOWLEDGE, session=self._obs_session, name=name)

    # ------------------------------------------------------------------
    # queries: candidates, options, ranges
    # ------------------------------------------------------------------
    def prune_report(self) -> IndexedPruneReport:
        """Current survivors with (lazily computed) elimination reasons.

        Each call prunes the layer's current index afresh; the index is
        rebuilt whenever the layer's epoch has moved, so no caller ever
        observes a stale report.
        """
        obs = self._obs
        with obs.span(_ev.PRUNE, session=self._obs_session) as span:
            index = self.layer.libraries.index()
            report = index.prune(
                self._cdo.qualified_name,
                _filter_decisions(self._cdo, self._decisions),
                _requirement_pairs(self._cdo, self._requirements),
                self.missing_policy)
            if obs.enabled:
                count = len(report.survivor_ids)
                span.note(
                    cdo=self._cdo.qualified_name,
                    survivors=count,
                    epoch=self.layer.epoch)
                if count <= TRACE_SET_LIMIT:
                    ranges = index.merit_ranges_for(
                        report.survivor_ids, self.merit_metrics)
                    # The names digest, not report.digest(): replay
                    # checks it against an independently built layer.
                    span.note(
                        digest=names_digest(report.survivor_names),
                        ranges={m: list(b) for m, b in ranges.items()})
        return report

    def candidates(self) -> List[DesignObject]:
        """Cores complying with the requirements and decisions so far."""
        return self.prune_report().survivors

    def fom_ranges(self, metrics: Optional[Sequence[str]] = None
                   ) -> Dict[str, Tuple[float, float]]:
        """Figure-of-merit ranges over the current candidates."""
        report = self.prune_report()
        return report.index.merit_ranges_for(
            report.survivor_ids,
            metrics if metrics is not None else self.merit_metrics)

    def available_options(self, issue_name: str,
                          limit: int = 32) -> List[OptionInfo]:
        """Options of an issue annotated with elimination status,
        candidate counts and merit ranges — the information the paper
        says should guide the designer at every step.

        Answered in one indexed pass: the base candidate set (everything
        but this issue's filter) is pruned once, by the decisions and then
        by the requirements, and each option intersects both with its
        posting set instead of re-pruning.  An
        option's ranges are computed on their first read, over the index
        snapshot taken here: a read after a layer mutation still
        describes the space the options were computed from.
        """
        prop = self._cdo.find_property(issue_name)
        if not isinstance(prop, DesignIssue):
            raise SessionError(f"{issue_name!r} is not a design issue")
        eliminated = dict()
        for option, reason in self.eliminations_for(issue_name):
            eliminated[option] = reason
        index = self.layer.libraries.index()
        decisions = _filter_decisions(self._cdo, self._decisions)
        decisions.pop(issue_name, None)
        requirements = _requirement_pairs(self._cdo, self._requirements)
        base_decided = index.prune_ids(
            index.subtree_ids(self._cdo.qualified_name),
            decisions, (), self.missing_policy)
        base_ids = index.prune_ids(base_decided, {}, requirements)
        owner = self._cdo.find_property_owner(issue_name) \
            if prop.generalized else None
        infos: List[OptionInfo] = []
        for option in prop.options(self.context(), limit):
            if option in eliminated:
                infos.append(OptionInfo(option, True, eliminated[option], 0))
                continue
            if prop.generalized:
                # A generalized option's candidates are the cores indexed
                # under the corresponding specialization (which need not
                # lie below the current position).
                assert owner is not None
                try:
                    child = owner.child_for_option(option)
                except Exception:
                    decided = ids = IdSet()
                else:
                    decided = index.prune_ids(
                        index.subtree_ids(child.qualified_name),
                        decisions, (), self.missing_policy)
                    ids = index.prune_ids(decided, {}, requirements)
            else:
                option_ids = index.decision_ids(
                    issue_name, option, self.missing_policy)
                decided = base_decided & option_ids
                ids = base_ids & option_ids
            infos.append(OptionInfo(
                option, False, "", len(ids),
                ranges_factory=partial(index.merit_ranges_for, ids,
                                       self.merit_metrics),
                candidate_ids=ids, index=index, decided_ids=decided))
        return infos

    def explain(self, core_name: str) -> str:
        """Why a core is (or is not) among the current candidates.

        The paper's layer is supposed to keep the designer oriented;
        "it vanished" is not an answer, so this surfaces the exact
        decision or requirement that eliminated a core.
        """
        report = self.prune_report()
        if core_name in report.eliminated:
            return (f"{core_name} eliminated: "
                    f"{report.eliminated[core_name]}")
        if any(core.name == core_name for core in report.survivors):
            return f"{core_name} survives every decision and requirement"
        return (f"{core_name} is not indexed under "
                f"{self._cdo.qualified_name} (outside the explored "
                f"design-space region)")

    def addressable_issues(self) -> List[DesignIssue]:
        """Design issues visible here, not yet decided and not blocked.

        Generalized issues of ancestor CDOs whose option is already
        implied by the session's position (the branch was entered when
        the session started below it) are settled, not addressable.
        """
        out = []
        for issue in self._cdo.design_issues():
            if issue.name in self._decisions:
                continue
            if issue.generalized:
                owner = self._cdo.find_property_owner(issue.name)
                if owner is not None and owner is not self._cdo:
                    continue  # position already implies an option
            if self.blocking_constraints(issue.name):
                continue
            out.append(issue)
        return out

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Textual state summary for interactive use and the examples."""
        lines = [f"Exploration of layer {self.layer.name!r}",
                 f"  at CDO: {self._cdo.qualified_name}"]
        if self._requirements:
            lines.append("  requirements:")
            for name, value in sorted(self._requirements.items()):
                flag = "  [stale]" if name in self._stale else ""
                lines.append(f"    {name} = {value!r}{flag}")
        if self._decisions:
            lines.append("  decisions:")
            for name, option in sorted(self._decisions.items()):
                flag = "  [stale]" if name in self._stale else ""
                lines.append(f"    {name} = {option!r}{flag}")
        derived = self.derived_values
        if derived:
            lines.append("  derived:")
            for name, value in sorted(derived.items()):
                lines.append(f"    {name} = {value!r}")
        prune_report = self.prune_report()
        lines.append(f"  candidate cores: {len(prune_report.survivor_ids)}")
        ranges = prune_report.index.merit_ranges_for(
            prune_report.survivor_ids, self.merit_metrics)
        for metric, (lo, hi) in sorted(ranges.items()):
            lines.append(f"    {metric}: {lo:g} .. {hi:g}")
        pending = self.pending_constraints()
        if pending:
            lines.append(
                f"  pending constraints: {[c.name for c in pending]}")
        return "\n".join(lines)
