"""A dominated branch counted from bitmasks equals the session descent.

Below an option whose bound the frontier strictly dominates, the
exhaustive walk counts the subtree from the option's candidate mask
(:meth:`SearchContext.count_dominated`) instead of deciding through it.
The oracle is the same problem walked with the layer's trace recorder
on, which always descends through the session: stats and frontier must
be identical.  Fixed cases pin each condition under which the walk keeps
descending through the session.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClassOfDesignObjects,
    ConsistencyConstraint,
    DesignObject,
    DesignSpaceLayer,
    ExplorationProblem,
    ExplorationSession,
    ReuseLibrary,
)
from repro.core.explore import explore
from repro.core.explore.engine import SearchContext
from repro.core.obs import events as _ev
from repro.core.properties import DesignIssue, Requirement, RequirementSense
from repro.core.pruning import MissingPolicy
from repro.core.relations import InconsistentOptions
from repro.core.values import EnumDomain, IntRange

METRICS = ("area", "latency_ns")
FAMILY_ISSUES = ("P", "U", "B")


def walked(problem):
    """The oracle: ``explore`` with tracing on, which never counts."""
    layer = problem.resolve_layer()
    layer.observe()
    try:
        return explore(problem)
    finally:
        layer.observe(None)


def spied(monkeypatch, problem):
    """``explore`` recording each ``count_dominated`` answer (with the
    CDO and the decided issues it was asked at, and the issue it was
    asked to decide) and each ``ExplorationSession.decide`` call."""
    answers, decides = [], []
    count, decide = SearchContext.count_dominated, ExplorationSession.decide

    def counting(ctx, via, depth, issue=None):
        answer = count(ctx, via, depth, issue)
        session = ctx.session
        answers.append((session.current_cdo.qualified_name,
                        frozenset(session.decisions),
                        None if issue is None else issue.name, answer))
        return answer

    def deciding(session, name, option):
        decides.append((name, option))
        return decide(session, name, option)

    with monkeypatch.context() as patch:
        patch.setattr(SearchContext, "count_dominated", counting)
        patch.setattr(ExplorationSession, "decide", deciding)
        result = explore(problem)
    return result, answers, decides


def assert_same(counted, oracle):
    assert counted.stats.to_dict() == oracle.stats.to_dict()
    assert counted.frontier.digest() == oracle.frontier.digest()


# ----------------------------------------------------------------------
# random hierarchies with a dominance gradient
# ----------------------------------------------------------------------
@st.composite
def gradient_layers(draw):
    """Root ``R`` (a ``Width`` requirement, maybe an enum issue ``Mode``)
    split by a generalized ``G`` into families; family ``i`` has 1-3 enum
    issues and cores offset ``i * step`` worse on both metrics, plus
    ``inner`` per unit of the options they document.  Cores may leave an
    issue or ``Width`` undocumented, or omit ``latency_ns``."""
    families = [f"f{i}" for i in range(draw(st.integers(2, 4)))]
    step = draw(st.sampled_from([0, 30, 200]))
    inner = draw(st.sampled_from([0, 10, 50]))
    layer = DesignSpaceLayer("counted", "dominance-gradient layer")
    root = ClassOfDesignObjects("R", "root")
    root.add_property(Requirement(
        "Width", IntRange(1), "width",
        sense=RequirementSense.AT_LEAST_SUPPORT))
    root.add_property(DesignIssue(
        "G", EnumDomain(families), "family", generalized=True))
    issues = {}
    if draw(st.booleans()):
        root.add_property(DesignIssue("Mode", EnumDomain(["a", "b"]), "mode"))
        issues["R"] = {"Mode": ["a", "b"]}
    layer.add_root(root)
    for family in families:
        child = root.specialize(family)
        names = draw(st.lists(st.sampled_from(FAMILY_ISSUES), min_size=1,
                              max_size=3, unique=True))
        for name in names:
            options = draw(st.lists(st.integers(0, 3), min_size=1,
                                    max_size=3, unique=True))
            child.add_property(DesignIssue(name, EnumDomain(options), name))
            issues.setdefault(f"R.{family}", {})[name] = options
    library = ReuseLibrary("counted", "generated cores")
    for i, family in enumerate(families):
        visible = {**issues.get("R", {}), **issues.get(f"R.{family}", {})}
        for n in range(draw(st.integers(0, 6))):
            properties = {}
            for name, options in visible.items():
                if draw(st.integers(0, 4)):  # 1 in 5 undocumented
                    properties[name] = draw(st.sampled_from(options))
            offset = i * step + inner * sum(
                value for value in properties.values()
                if isinstance(value, int))
            width = draw(st.sampled_from([None, 8, 16, 32]))
            if width is not None:
                properties["Width"] = width
            merits = {"area": float(offset + draw(st.integers(1, 40)))}
            if draw(st.integers(0, 4)):
                merits["latency_ns"] = float(offset
                                             + draw(st.integers(1, 40)))
            library.add(DesignObject(f"{family}c{n}", f"R.{family}",
                                     properties, merits))
    if len(library):
        layer.attach_library(library)
    layer.validate()
    return layer, issues


@st.composite
def gradient_problems(draw):
    layer, issues = draw(gradient_layers())
    triples = sorted({(cdo, name, repr(option))
                      for cdo, by_name in issues.items()
                      for name, options in by_name.items()
                      for option in options})
    dead = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(triples), max_size=4))) if triples else None
    order = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(("G", "Mode") + FAMILY_ISSUES + ("X",)),
        min_size=1, max_size=6)))
    return ExplorationProblem(
        start="R", metrics=METRICS, layer=layer,
        requirements=draw(st.sampled_from(
            [{}, {"Width": 8}, {"Width": 16}, {"Width": 32}])),
        missing_policy=draw(st.sampled_from(list(MissingPolicy))),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
        issues=None if order is None else tuple(order),
        option_limit=draw(st.integers(1, 16)),
        dead_mask=None if dead is None else frozenset(dead))


class TestCountedEqualsWalked:
    @settings(max_examples=300, deadline=None)
    @given(gradient_problems())
    def test_random_hierarchies(self, problem):
        assert_same(explore(problem), walked(problem))

    def test_counts_the_dominated_branches(self, monkeypatch):
        problem = ExplorationProblem(start="R", metrics=METRICS,
                                     layer=family_layer())
        result, answers, decides = spied(monkeypatch, problem)
        assert_same(result, walked(problem))
        # P = 2 under f0 is counted before it is decided; f1 and f2 are
        # decided (G is generalized: the CDO moves) and counted below.
        assert answers == [
            ("R.f0", {"G"}, "P", True),
            ("R", set(), "G", False), ("R.f1", {"G"}, None, True),
            ("R", set(), "G", False), ("R.f2", {"G"}, None, True)]
        assert decides == [("G", "f0"), ("P", 1), ("U", 1), ("U", 2),
                           ("G", "f1"), ("G", "f2")]
        assert result.stats.expanded == 21

    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    def test_max_depth(self, max_depth):
        problem = ExplorationProblem(start="R", metrics=METRICS,
                                     layer=family_layer(),
                                     max_depth=max_depth)
        assert_same(explore(problem), walked(problem))


# ----------------------------------------------------------------------
# fallbacks: the session descends
# ----------------------------------------------------------------------
def family_layer(issue=None, sub_split=False):
    """``R`` split by ``G`` into f0 < f1 < f2, each strictly worse; each
    family has ``issue`` when given, then enum issues ``P`` and ``U``
    (``P`` = 2 strictly worse than 1).  With ``sub_split`` each family
    is split again by a generalized ``H`` into ``s0``/``s1``, which carry
    the issues instead."""
    layer = DesignSpaceLayer("fallback", "fallback layer")
    root = ClassOfDesignObjects("R", "root")
    root.add_property(Requirement(
        "Width", IntRange(1), "width",
        sense=RequirementSense.AT_LEAST_SUPPORT))
    root.add_property(DesignIssue(
        "G", EnumDomain(["f0", "f1", "f2"]), "family", generalized=True))
    layer.add_root(root)
    library = ReuseLibrary("fallback", "cores")
    for i in range(3):
        family = root.specialize(f"f{i}")
        holders = [family]
        if sub_split:
            family.add_property(DesignIssue(
                "H", EnumDomain(["s0", "s1"]), "sub", generalized=True))
            holders = [family.specialize("s0"), family.specialize("s1")]
        for holder in holders:
            if issue is not None:
                holder.add_property(issue())
            holder.add_property(DesignIssue("P", EnumDomain([1, 2]), "P"))
            holder.add_property(DesignIssue("U", EnumDomain([1, 2]), "U"))
            for n in range(8):
                properties = {"P": 1 + n % 2, "U": 1 + n // 2 % 2,
                              "Width": 16, "N": 1 + n // 4}
                library.add(DesignObject(
                    f"{holder.qualified_name}.c{n}", holder.qualified_name,
                    properties,
                    {"area": 100.0 * (i + 1) + n + 20 * (n % 2),
                     "latency_ns": 100.0 * (i + 1) + 8 - n + 20 * (n % 2)}))
    layer.attach_library(library)
    layer.validate()
    return layer


def never_inconsistent_cc():
    return ConsistencyConstraint(
        "CC-p", "P is checked against Width",
        independents={"W": "Width@R"}, dependents={"P": "P@R.*"},
        relation=InconsistentOptions(lambda b: False, "never",
                                     requires=("W",)))


class TestFallbacks:
    def walk(self, monkeypatch, problem, until=None):
        """Walk ``problem`` and check it against the oracle: a dominated
        position is counted exactly when issue ``until`` is decided."""
        result, answers, decides = spied(monkeypatch, problem)
        assert_same(result, walked(problem))
        assert answers
        assert all(answer == (until in decided)
                   for _, decided, _, answer in answers)
        return result, decides

    def test_applicable_constraint(self, monkeypatch):
        layer = family_layer()
        layer.add_constraint(never_inconsistent_cc())
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer,
                                     requirements={"Width": 16})
        result, decides = self.walk(monkeypatch, problem)
        assert len(decides) == result.stats.expanded

    def test_estimator(self, monkeypatch):
        problem = ExplorationProblem(
            start="R", metrics=METRICS, layer=family_layer(),
            estimator=lambda session: {"area": 1e9, "latency_ns": 1e9})
        result, decides = self.walk(monkeypatch, problem)
        assert len(decides) == result.stats.expanded

    def test_non_enum_issue(self, monkeypatch):
        # Each family addresses the integer-range N first: the session
        # decides every N of a dominated family, and counts below it.
        problem = ExplorationProblem(
            start="R", metrics=METRICS,
            layer=family_layer(lambda: DesignIssue("N", IntRange(1, 2), "N")))
        _, decides = self.walk(monkeypatch, problem, until="N")
        below = decides[decides.index(("G", "f2")):]
        assert below == [("G", "f2"), ("N", 1), ("N", 2)]

    def test_generalized_issue_below(self, monkeypatch):
        # A dominated family still has H to decide (the CDO would move):
        # the session decides it, and each sub-family below is counted.
        problem = ExplorationProblem(start="R", metrics=METRICS,
                                     layer=family_layer(sub_split=True))
        _, decides = self.walk(monkeypatch, problem, until="H")
        below = decides[decides.index(("G", "f2")):]
        assert below == [("G", "f2"), ("H", "s0"), ("H", "s1")]

    def test_tracing(self, monkeypatch):
        layer = family_layer()
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        recorder = layer.observe()
        try:
            result, answers, decides = spied(monkeypatch, problem)
        finally:
            layer.observe(None)
        assert answers and not any(answer for *_, answer in answers)
        assert len(decides) == result.stats.expanded
        opened = [e for e in recorder.events if e.kind == _ev.BRANCH_OPEN]
        assert len(opened) == result.stats.opened


def test_bnb_never_counts(monkeypatch):
    # bnb cuts a dominated branch instead of counting it.
    problem = ExplorationProblem(start="R", metrics=METRICS,
                                 layer=family_layer())
    with monkeypatch.context() as patch:
        patch.setattr(SearchContext, "count_dominated",
                      lambda *args: pytest.fail("counted"))
        explore(problem, strategy="bnb")
