"""Outcomes, Pareto dominance edge cases, rankings, and bounds."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClassOfDesignObjects,
    DesignIssue,
    DesignObject,
    DesignSpaceLayer,
    EnumDomain,
    ExplorationSession,
    ReuseLibrary,
)
from repro.core.explore import (
    ESTIMATED,
    ExplorationProblem,
    Outcome,
    ParetoFrontier,
    explore,
    weighted_sum,
)
from repro.core.evaluation import dominates
from repro.core.explore.engine import SearchContext
from repro.core.index import CoreIndex, IndexedPruneReport
from repro.core.pruning import merit_bounds
from repro.domains.idct import idct_exploration_problem

from conftest import EXPLORE_DIGEST, build_widget_layer


def out(core, merits, decisions=(("Style", "hw"),), cdo="Widget.hw",
        estimated=False):
    return Outcome(decisions=tuple(decisions), cdo=cdo, core=core,
                   merits=tuple(merits.items()), estimated=estimated)


METRICS = ("area", "latency_ns")


class TestOutcome:
    def test_path_key_is_canonical(self):
        o = out("c1", {"area": 1.0},
                decisions=(("A", 1), ("B", "x")))
        assert o.path_key == "A=1, B='x'"
        assert o.key == ("A=1, B='x'", "c1")

    def test_coords_missing_metric_is_inf(self):
        o = out("c1", {"area": 5.0})
        assert o.coords(METRICS) == (5.0, math.inf)

    def test_to_dict_round_trip_fields(self):
        o = out("c1", {"area": 5.0}, estimated=True)
        d = o.to_dict()
        assert d["core"] == "c1"
        assert d["estimated"] is True
        assert d["merits"] == {"area": 5.0}

    def test_describe_marks_estimated(self):
        o = out(ESTIMATED, {"area": 5.0}, estimated=True)
        assert "[estimated]" in o.describe()

    def test_immutable_and_slotted(self):
        o = out("c1", {"area": 5.0})
        assert not hasattr(o, "__dict__")
        for name in ("core", "path_key", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(o, name, "x")
        with pytest.raises(AttributeError):
            del o.core

    def test_equality_hash_and_repr_leave_out_path_key(self):
        decisions = (("A", 1),)
        o = Outcome(decisions, "R", "c1", (("area", 5.0),))
        same = Outcome(decisions, "R", "c1", (("area", 5.0),),
                       path_key="rendered elsewhere")
        assert o == same and hash(o) == hash(same)
        assert o != Outcome(decisions, "R", "c1", (("area", 5.0),),
                            estimated=True)
        assert o != Outcome(decisions, "R", "c2", (("area", 5.0),))
        assert repr(o) == repr(same) == (
            "Outcome(decisions=(('A', 1),), cdo='R', core='c1', "
            "merits=(('area', 5.0),), estimated=False)")

    def test_pickle_and_copy_keep_every_field(self):
        o = Outcome((("A", 1),), "R", "c1", (("area", 5.0),), True,
                    path_key="kept")
        for clone in (pickle.loads(pickle.dumps(o)), copy.copy(o),
                      copy.deepcopy(o)):
            assert clone == o and clone.path_key == "kept"
            assert clone.estimated is True

    def test_terminal_outcomes_share_decision_pairs(self):
        layer = build_widget_layer()
        problem = ExplorationProblem(start="Widget", metrics=METRICS,
                                     layer=layer)
        result = explore(problem, strategy="exhaustive")
        pairs = {}
        for outcome in result.frontier.outcomes():
            for pair in outcome.decisions:
                assert pairs.setdefault(pair, pair) is pair
        assert len(pairs) < sum(len(o.decisions)
                                for o in result.frontier.outcomes())


class TestWeightedSum:
    def test_plain(self):
        assert weighted_sum((2.0, 3.0)) == 5.0
        assert weighted_sum((2.0, 3.0), (10.0, 1.0)) == 23.0

    def test_inf_coordinate_stays_inf(self):
        assert weighted_sum((2.0, math.inf)) == math.inf


class TestFrontierDominance:
    def test_needs_metrics(self):
        with pytest.raises(ValueError):
            ParetoFrontier(())

    def test_dominated_newcomer_rejected(self):
        f = ParetoFrontier(METRICS)
        assert f.add(out("good", {"area": 1.0, "latency_ns": 1.0}))
        assert not f.add(out("bad", {"area": 2.0, "latency_ns": 2.0}))
        assert len(f) == 1

    def test_dominating_newcomer_evicts(self):
        f = ParetoFrontier(METRICS)
        f.add(out("bad", {"area": 2.0, "latency_ns": 2.0}))
        assert f.add(out("good", {"area": 1.0, "latency_ns": 1.0}))
        assert [o.core for o in f.outcomes()] == ["good"]

    def test_ties_are_kept(self):
        f = ParetoFrontier(METRICS)
        assert f.add(out("a", {"area": 1.0, "latency_ns": 1.0}))
        assert f.add(out("b", {"area": 1.0, "latency_ns": 1.0}))
        assert len(f) == 2

    def test_incomparable_coexist(self):
        f = ParetoFrontier(METRICS)
        assert f.add(out("fast", {"area": 9.0, "latency_ns": 1.0}))
        assert f.add(out("small", {"area": 1.0, "latency_ns": 9.0}))
        assert len(f) == 2

    def test_duplicate_key_ignored(self):
        f = ParetoFrontier(METRICS)
        o = out("a", {"area": 1.0, "latency_ns": 1.0})
        assert f.add(o)
        assert not f.add(o)
        assert len(f) == 1

    def test_missing_merit_dominated_by_complete(self):
        f = ParetoFrontier(METRICS)
        f.add(out("complete", {"area": 1.0, "latency_ns": 1.0}))
        assert not f.add(out("partial", {"area": 1.0}))

    def test_missing_merit_survives_when_incomparable(self):
        # inf on one axis but strictly better on another: kept.
        f = ParetoFrontier(METRICS)
        f.add(out("complete", {"area": 2.0, "latency_ns": 1.0}))
        assert f.add(out("partial", {"area": 1.0}))
        assert len(f) == 2

    def test_estimated_outcomes_compete_normally(self):
        f = ParetoFrontier(METRICS)
        f.add(out(ESTIMATED, {"area": 1.0, "latency_ns": 1.0},
                  estimated=True))
        assert not f.add(out("real", {"area": 2.0, "latency_ns": 2.0}))


class TestFrontierOrderIndependence:
    def outcomes(self):
        return [out("a", {"area": 1.0, "latency_ns": 9.0}),
                out("b", {"area": 9.0, "latency_ns": 1.0}),
                out("c", {"area": 5.0, "latency_ns": 5.0}),
                out("d", {"area": 6.0, "latency_ns": 6.0})]

    def test_outcomes_and_digest_insertion_order_independent(self):
        forward, backward = ParetoFrontier(METRICS), ParetoFrontier(METRICS)
        items = self.outcomes()
        for o in items:
            forward.add(o)
        for o in reversed(items):
            backward.add(o)
        assert forward.outcomes() == backward.outcomes()
        assert forward.digest() == backward.digest()

    def test_digest_differs_on_different_frontiers(self):
        f, g = ParetoFrontier(METRICS), ParetoFrontier(METRICS)
        f.add(out("a", {"area": 1.0, "latency_ns": 1.0}))
        g.add(out("b", {"area": 2.0, "latency_ns": 2.0}))
        assert f.digest() != g.digest()


class TestBounds:
    def test_merit_bounds_takes_minima_and_inf_for_missing(self):
        ranges = {"area": (10.0, 50.0)}
        assert merit_bounds(ranges, METRICS) == (10.0, math.inf)

    def test_dominates_bound_is_strict(self):
        f = ParetoFrontier(METRICS)
        f.add(out("m", {"area": 1.0, "latency_ns": 1.0}))
        # Equal bound is a potential tie — must NOT be prunable.
        assert not f.dominates_bound((1.0, 1.0))
        assert f.dominates_bound((1.0, 2.0))
        assert f.dominates_bound((math.inf, math.inf))
        assert not f.dominates_bound((0.5, 2.0))

    def test_empty_frontier_prunes_nothing(self):
        assert not ParetoFrontier(METRICS).dominates_bound((0.0, 0.0))


class TestRankings:
    def populated(self):
        f = ParetoFrontier(METRICS)
        f.add(out("fast", {"area": 9.0, "latency_ns": 1.0}))
        f.add(out("small", {"area": 1.0, "latency_ns": 9.0}))
        f.add(out("partial", {"area": 0.5}))
        return f

    def test_weighted_default(self):
        ranking = self.populated().weighted_ranking()
        # fast and small tie at 10; the coordinate tiebreak puts small
        # (area 1) first, and partial's missing metric scores inf.
        assert [o.core for _, o in ranking] == ["small", "fast", "partial"]
        assert ranking[0][0] == 10.0
        assert ranking[-1][0] == math.inf

    def test_weighted_with_weights(self):
        ranking = self.populated().weighted_ranking({"area": 100.0})
        assert ranking[0][1].core == "small"

    def test_lexicographic(self):
        f = self.populated()
        by_area = f.lexicographic_ranking(["area"])
        assert [o.core for o in by_area] == ["partial", "small", "fast"]
        by_latency = f.lexicographic_ranking(["latency_ns", "area"])
        assert [o.core for o in by_latency] == ["fast", "small", "partial"]

    def test_lexicographic_unknown_metric(self):
        with pytest.raises(KeyError):
            self.populated().lexicographic_ranking(["power"])


class TestReporting:
    def test_render_text_truncates(self):
        f = ParetoFrontier(("area",))
        for i in range(5):
            f.add(out(f"c{i}", {"area": 1.0},
                      decisions=(("X", i),)))
        text = f.render_text(limit=2)
        assert "5 non-dominated" in text
        assert "... 3 more" in text


# ----------------------------------------------------------------------
# Lazy terminal outcomes: rejects() screening must equal add() exactly
# ----------------------------------------------------------------------
#: Merit values with ties, both zeros and a documented ``inf``.
MERIT_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, math.inf])

#: One metric's value, or None when the core leaves it undocumented.
MAYBE_MERIT = st.one_of(st.none(), MERIT_VALUES)

#: As :data:`MAYBE_MERIT`, also drawing NaN, which nothing dominates.
MAYBE_MERIT_OR_NAN = st.one_of(MAYBE_MERIT, st.just(math.nan))


def random_outcome(values=MAYBE_MERIT):
    return st.builds(
        lambda core, option, area, latency: out(
            core, {m: v for m, v in (("area", area), ("latency_ns", latency))
                   if v is not None},
            decisions=(("Style", option),)),
        st.sampled_from(["a", "b", "c"]), st.sampled_from(["hw", "sw"]),
        values, values)


class MemberScanFrontier:
    """A frontier that compares a newcomer with every member."""

    def __init__(self):
        self.members = {}

    def dominates_bound(self, bound):
        return any(dominates(coords, bound)
                   for coords, _ in self.members.values())

    def add(self, outcome):
        coords = outcome.coords(METRICS)
        if outcome.key in self.members or self.dominates_bound(coords):
            return False
        for key in [key for key, (member, _) in self.members.items()
                    if dominates(coords, member)]:
            del self.members[key]
        self.members[outcome.key] = (coords, outcome)
        return True


class TestRejects:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(random_outcome(), max_size=12), random_outcome())
    def test_rejects_iff_add_refuses(self, members, candidate):
        frontier, probe = ParetoFrontier(METRICS), ParetoFrontier(METRICS)
        for o in members:
            frontier.add(o)
            probe.add(o)
        before = frontier.outcomes()
        rejected = frontier.rejects(candidate.key, candidate.coords(METRICS))
        assert frontier.outcomes() == before
        assert rejected == (not probe.add(candidate))
        if rejected:
            assert probe.outcomes() == frontier.outcomes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(random_outcome(MAYBE_MERIT_OR_NAN),
                              st.tuples(MERIT_VALUES, MERIT_VALUES)),
                    max_size=16))
    def test_distinct_points_match_a_member_scan(self, offers):
        frontier, reference = ParetoFrontier(METRICS), MemberScanFrontier()
        for outcome, bound in offers:
            assert frontier.add(outcome) == reference.add(outcome)
            assert frontier.entries() == [
                (key, coords, outcome)
                for key, (coords, outcome) in reference.members.items()]
            assert sum(frontier._points.values()) == len(frontier)
            assert frontier.dominates_bound(bound) \
                == reference.dominates_bound(bound)

    def test_duplicate_key_rejected(self):
        f = ParetoFrontier(METRICS)
        o = out("a", {"area": 5.0, "latency_ns": 5.0})
        f.add(o)
        assert f.rejects(o.key, (0.0, 0.0))
        assert not f.rejects(("other", "a"), (0.0, 0.0))

    def test_tie_is_not_rejected(self):
        f = ParetoFrontier(METRICS)
        f.add(out("a", {"area": 1.0, "latency_ns": 1.0}))
        assert not f.rejects(("Style='hw'", "b"), (1.0, 1.0))
        assert f.rejects(("Style='hw'", "b"), (1.0, math.inf))


def core_specs():
    """Cores as (library, name, option of issue I, merits); names repeat
    across the two libraries but are unique within one."""
    return st.lists(
        st.tuples(st.sampled_from([0, 1]),
                  st.sampled_from(["c0", "c1", "c2", "c3", "c4"]),
                  st.sampled_from([None, 0, 1]),
                  MAYBE_MERIT_OR_NAN, MAYBE_MERIT_OR_NAN),
        max_size=14, unique_by=lambda spec: (spec[0], spec[1]))


def spec_layer(specs):
    """Root ``R`` with one issue ``I`` over {0, 1, 2}; no core documents
    option 2, so deciding it leaves no survivor."""
    layer = DesignSpaceLayer("lazy", "terminal equivalence layer")
    root = ClassOfDesignObjects("R", "root")
    root.add_property(DesignIssue("I", EnumDomain([0, 1, 2]), "issue"))
    layer.add_root(root)
    libraries = [ReuseLibrary(f"lib{i}", "cores") for i in range(2)]
    for library, name, option, area, latency in specs:
        properties = {} if option is None else {"I": option}
        merits = {m: v for m, v in (("area", area), ("latency_ns", latency))
                  if v is not None}
        libraries[library].add(DesignObject(name, "R", properties, merits))
    for library in libraries:
        if len(library):
            layer.attach_library(library)
    layer.validate()
    return layer


def reference_terminal(ctx, via=None, dominated=False):
    """Every survivor becomes an Outcome offered to ``frontier.add``; the
    walk's branch check (``via``/``dominated``) is ignored."""
    session = ctx.session
    ctx.stats.terminals += 1
    decisions = tuple(sorted(session.decisions.items(),
                             key=lambda item: item[0]))
    cdo = session.current_cdo.qualified_name
    added = []
    report = session.prune_report()
    if report.survivors:
        for core in report.survivors:
            merits = tuple((m, float(core.merit(m)))
                           for m in ctx.metrics if core.has_merit(m))
            outcome = Outcome(decisions, cdo, core.name, merits)
            ctx.stats.outcomes += 1
            if ctx.frontier.add(outcome):
                added.append(outcome)
    elif ctx.problem.estimator is not None:
        ctx.stats.evaluations += 1
        estimates = dict(ctx.problem.estimator(session))
        merits = tuple((m, float(estimates[m]))
                       for m in ctx.metrics if m in estimates)
        outcome = Outcome(decisions, cdo, ESTIMATED, merits, estimated=True)
        ctx.stats.outcomes += 1
        if ctx.frontier.add(outcome):
            added.append(outcome)
    return added


def still_members(terminal):
    """``terminal`` returning only the outcomes that are still members
    when it returns: a reference terminal also returns those a later
    survivor of the same terminal evicted."""
    def kept(ctx, *args):
        return [o for o in terminal(ctx, *args) if o in ctx.frontier]
    return kept


def walk_terminals(ctx, terminal, root_first=True):
    """Terminals under each option of ``I`` and at the root (every key a
    duplicate the second time); the root comes first and last, or only
    last so the options meet an emptier frontier."""
    results = [terminal(ctx)] if root_first else []
    for option in (0, 1, 2):
        assert ctx.decide("I", option)
        results.append(terminal(ctx))
        ctx.undo()
    results.append(terminal(ctx))
    return results


def reference_run(monkeypatch, problem, strategy="exhaustive"):
    """``explore`` with every terminal built by :func:`reference_terminal`
    and every option bound read from its merit ranges, so no terminal is
    skipped or counted from its option and bnb cuts on the range bound."""
    with monkeypatch.context() as patch:
        patch.setattr(SearchContext, "terminal", reference_terminal)
        patch.setattr(SearchContext, "bound", lambda ctx, info: merit_bounds(
            info.ranges, ctx.metrics))
        return explore(problem, strategy)


class TestLazyTerminal:
    @settings(max_examples=300, deadline=None)
    @given(core_specs(),
           st.one_of(st.none(), st.fixed_dictionaries(
               {}, optional={"area": MERIT_VALUES,
                             "latency_ns": MERIT_VALUES})),
           st.booleans())
    def test_matches_reference_loop(self, specs, estimate, root_first):
        # Covers undocumented metrics, documented inf, NaN, ties on the
        # ideal point, one name in two libraries, and the estimator when
        # option 2 leaves no survivor.
        layer = spec_layer(specs)
        estimator = None if estimate is None else (lambda session: estimate)
        problem = ExplorationProblem(start="R", metrics=METRICS,
                                     layer=layer, estimator=estimator)
        lazy = SearchContext(problem, problem.open_session(layer))
        eager = SearchContext(problem, problem.open_session(layer))
        got = walk_terminals(lazy, SearchContext.terminal, root_first)
        want = walk_terminals(eager, still_members(reference_terminal),
                              root_first)
        assert got == want
        assert [[o.path_key for o in batch] for batch in got] \
            == [[o.path_key for o in batch] for batch in want]
        assert lazy.frontier.entries() == eager.frontier.entries()
        assert lazy.frontier.digest() == eager.frontier.digest()
        assert lazy.stats.to_dict() == eager.stats.to_dict()

    def test_duplicate_core_name_across_libraries(self):
        layer = spec_layer([(0, "c0", 0, 1.0, 1.0), (1, "c0", 1, 1.0, 1.0)])
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        ctx = SearchContext(problem, problem.open_session(layer))
        added = ctx.terminal()
        # Same path and name: the second core is the same key.
        assert [o.core for o in added] == ["c0"]
        assert ctx.stats.outcomes == 2
        assert len(ctx.frontier) == 1

    @pytest.mark.parametrize("specs,member", [
        ([(0, "c0", 0, 2.0, 2.0), (1, "c0", 0, 1.0, 1.0)], 2.0),
        ([(0, "c0", 0, 2.0, 2.0), (0, "c1", 0, 1.5, 1.5),
          (1, "c0", 0, 1.0, 1.0)], 1.0),
    ], ids=["first-claims-the-key", "evicted-then-claimed-again"])
    def test_one_name_with_different_merits(self, specs, member):
        # Both c0 share the key: the first offered claims it even where
        # the second dominates it, so the skyline alone would differ.
        layer = spec_layer(specs)
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        lazy = SearchContext(problem, problem.open_session(layer))
        eager = SearchContext(problem, problem.open_session(layer))
        got = walk_terminals(lazy, SearchContext.terminal)
        want = walk_terminals(eager, still_members(reference_terminal))
        assert got == want
        assert lazy.frontier.entries() == eager.frontier.entries()
        assert [(o.core, o.merits) for o in got[0]] == [
            ("c0", (("area", member), ("latency_ns", member)))]
        assert lazy.stats.to_dict() == eager.stats.to_dict()

    def test_live_terminals_offer_only_their_skyline(self, monkeypatch,
                                                     explore_layer):
        problem = ExplorationProblem(start="Design", metrics=METRICS,
                                     requirements={"Width": 16},
                                     layer=explore_layer)
        explore(problem)  # index built before the spies go in
        skylines, screened, reads, adding, prunes = [], [], [], [], []
        skyline, rejects, add = (CoreIndex.skyline, ParetoFrontier.rejects,
                                 ParetoFrontier.add)
        survivors = IndexedPruneReport.survivors
        prune_report = ExplorationSession.prune_report

        def spy_skyline(index, ids, metrics, within=None):
            kept = skyline(index, ids, metrics, within=within)
            skylines.append([index.names[i] for i in kept])
            return kept

        def spy_rejects(frontier, key, coords):
            if not adding:  # add() screens the newcomer again
                screened.append(key[1])
            return rejects(frontier, key, coords)

        def spy_add(frontier, outcome, coords=None):
            adding.append(outcome)
            try:
                return add(frontier, outcome, coords)
            finally:
                adding.pop()

        monkeypatch.setattr(CoreIndex, "skyline", spy_skyline)
        monkeypatch.setattr(ParetoFrontier, "rejects", spy_rejects)
        monkeypatch.setattr(ParetoFrontier, "add", spy_add)
        monkeypatch.setattr(IndexedPruneReport, "survivors", property(
            lambda report: reads.append(report) or survivors.fget(report),
            survivors.fset))
        monkeypatch.setattr(
            ExplorationSession, "prune_report",
            lambda session: prunes.append(session) or prune_report(session))
        result = explore(problem)
        assert result.frontier.digest() == EXPLORE_DIGEST
        assert result.stats.outcomes == 40000
        assert reads == []
        assert len(skylines) == 32
        assert screened == [name for names in skylines for name in names]
        assert len(screened) == 169
        # Each live terminal offers the candidates of the option that
        # led there, unpruned; traced, each prunes for its event.
        assert prunes == []
        explore_layer.observe()
        try:
            traced = explore(problem)
        finally:
            explore_layer.observe(None)
        assert traced.frontier.digest() == EXPLORE_DIGEST
        assert len(prunes) == 32
        assert len(skylines) == 64

    def test_missing_metric_and_documented_inf_keep_merits(self):
        # One point, (1, inf), so both join and stay.
        layer = spec_layer([(0, "c0", 0, 1.0, None),
                            (0, "c1", 0, 1.0, math.inf)])
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        ctx = SearchContext(problem, problem.open_session(layer))
        added = ctx.terminal()
        assert [(o.core, o.merits) for o in added] == [
            ("c0", (("area", 1.0),)),
            ("c1", (("area", 1.0), ("latency_ns", math.inf)))]

    def test_a_survivor_evicted_by_a_later_one_is_not_returned(self):
        # c1's (0.5, inf) dominates c0's (1, inf): a per-survivor loop
        # adds c0 and then evicts it, the skyline never offers it.
        layer = spec_layer([(0, "c0", 0, 1.0, None),
                            (0, "c1", 0, 0.5, math.inf)])
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        ctx = SearchContext(problem, problem.open_session(layer))
        assert [(o.core, o.merits) for o in ctx.terminal()] == [
            ("c1", (("area", 0.5), ("latency_ns", math.inf)))]

    def test_member_equal_to_the_ideal_point_does_not_skip(self):
        # c0 joins at the root with (1, 1); under I=0 the ideal point of
        # c1 is (1, 1) as well, a tie, so c1 joins under its own path.
        layer = spec_layer([(0, "c0", None, 1.0, 1.0),
                            (0, "c1", 0, 1.0, 1.0)])
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        ctx = SearchContext(problem, problem.open_session(layer))
        assert [o.core for o in ctx.terminal()] == ["c0", "c1"]
        assert ctx.decide("I", 0)
        assert [(o.path_key, o.core) for o in ctx.terminal()] == [
            ("I=0", "c1")]

    def test_nan_survivor_is_never_skipped(self):
        layer = spec_layer([(0, "c0", None, 0.0, 0.0),
                            (0, "c1", 0, math.nan, 5.0)])
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        ctx = SearchContext(problem, problem.open_session(layer))
        ctx.terminal()
        assert ctx.decide("I", 0)
        # (0, 0) would dominate (x, 5.0) for any number x, but not NaN.
        assert [o.core for o in ctx.terminal()] == ["c1"]

    def test_bnb_opens_an_option_whose_nan_core_joins(self):
        # Under I=1 the numbers' minima (1, 1) are dominated by c0, but
        # c2's NaN area is dominated by nothing: the option's bound must
        # be NaN there, as the leaf bound's is, so bnb opens it.
        layer = spec_layer([(0, "c0", 0, 0.0, 0.0),
                            (0, "c1", 1, 1.0, 1.0),
                            (0, "c2", 1, math.nan, 5.0)])
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        full = explore(problem, strategy="exhaustive")
        bnb = explore(problem, strategy="bnb")
        assert "c2" in [o.core for o in full.frontier.outcomes()]
        assert bnb.frontier.digest() == full.frontier.digest()

    def test_dominated_terminal_never_materializes(self, monkeypatch):
        layer = spec_layer([(0, "c0", None, 0.0, 0.0),
                            (0, "c1", 0, 1.0, 2.0),
                            (1, "c2", 0, 3.0, 0.5)])
        problem = ExplorationProblem(start="R", metrics=METRICS, layer=layer)
        ctx = SearchContext(problem, problem.open_session(layer))
        ctx.terminal()
        assert ctx.decide("I", 0)
        calls = []
        materialize = CoreIndex.materialize
        monkeypatch.setattr(
            CoreIndex, "materialize",
            lambda index, ids: calls.append(ids) or materialize(index, ids))
        assert ctx.terminal() == []
        assert calls == []
        assert ctx.stats.outcomes == 5 and ctx.stats.terminals == 2

    @pytest.mark.parametrize("strategy", ["exhaustive", "bnb"])
    @pytest.mark.parametrize("layer_name", ["widget", "idct"])
    def test_strategies_match_reference_runs(self, monkeypatch, idct_layer,
                                             strategy, layer_name):
        if layer_name == "idct":
            problem = dataclasses.replace(idct_exploration_problem(),
                                          layer=idct_layer)
        else:
            problem = ExplorationProblem(start="Widget", metrics=METRICS,
                                         layer=build_widget_layer())
        got = explore(problem, strategy)
        want = reference_run(monkeypatch, problem, strategy)
        assert got.frontier.digest() == want.frontier.digest()
        assert got.stats.to_dict() == want.stats.to_dict()



class TestSharedTuples:
    def test_repeated_walks_share_decisions_and_merits(self, widget_layer):
        problem = ExplorationProblem(start="Widget", metrics=METRICS,
                                     layer=widget_layer)
        first, again = explore(problem), explore(problem, "bnb")
        assert again.frontier.digest() == first.frontier.digest()
        for a, b in zip(first.frontier.outcomes(),
                        again.frontier.outcomes()):
            assert a is not b
            assert a.decisions is b.decisions and a.merits is b.merits

    def test_other_metrics_read_their_own_points(self):
        """c0 lacks latency: its merits read alike under both metric
        sets, but its point is (0,) under one and (0, inf) under the
        other, where c1 dominates it."""
        specs = [(0, "c0", 0, 0.0, None), (0, "c1", 1, 0.0, 1.0)]
        layer = spec_layer(specs)
        for metrics in (("area",), METRICS, ("latency_ns", "area")):
            for strategy in ("exhaustive", "bnb"):
                got = explore(ExplorationProblem(start="R", metrics=metrics,
                                                 layer=layer), strategy)
                want = explore(ExplorationProblem(
                    start="R", metrics=metrics, layer=spec_layer(specs)),
                    strategy)
                assert got.frontier.digest() == want.frontier.digest()
                assert [o.merits for o in got.frontier.outcomes()] \
                    == [o.merits for o in want.frontier.outcomes()]

    def test_equal_options_keep_their_own_decisions(self):
        """1, 1.0 and True are equal, but each renders its own path."""
        options = [1, 1.0, True]
        layer = DesignSpaceLayer("alike", "equal options")
        root = ClassOfDesignObjects("R", "root")
        root.add_property(DesignIssue("I", EnumDomain([1, 2]), "issue"))
        layer.add_root(root)
        cores = ReuseLibrary("lib", "cores")
        cores.add(DesignObject("c0", "R", {"I": 1},
                               {"area": 1.0, "latency_ns": 1.0}))
        layer.attach_library(cores)
        for option in options:
            [outcome] = explore(ExplorationProblem(
                start="R", metrics=METRICS, decisions=(("I", option),),
                layer=layer)).frontier.outcomes()
            assert outcome.decisions[0][1] is option
            assert outcome.path_key == f"I={option}"
