"""Unit tests of the inverted core index (repro.core.index)."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    CoreIndex,
    DesignObject,
    MissingPolicy,
    Requirement,
    RequirementSense,
)
from repro.core.index import IdSet, _bin_popcount, _bits, _mask_of
from repro.core.session import ExplorationSession
from repro.core.values import IntRange
from repro.core.pruning import merit_bounds, merit_ranges, names_digest, prune

from conftest import build_widget_layer


def make_cores():
    return [
        DesignObject("a", "R.X", {"Tech": "t35", "Width": 32},
                     {"area": 10.0, "latency_ns": 5.0}),
        DesignObject("b", "R.X.Deep", {"Tech": "t70", "Width": 64},
                     {"area": 20.0, "latency_ns": 3.0}),
        DesignObject("c", "R.Y", {"Tech": "t35"}, {"area": 30.0}),
        DesignObject("d", "R.Y", {"Width": 16}, {"latency_ns": 9.0}),
        DesignObject("e", "Other", {}, {"area": 5.0}),
    ]


@pytest.fixture()
def index():
    return CoreIndex(make_cores())


class TestSubtreeClosure:
    def test_subtree_includes_descendants(self, index):
        names = [c.name for c in index.cores_under("R.X")]
        assert names == ["a", "b"]

    def test_exact_excludes_descendants(self, index):
        names = [c.name for c in index.cores_under("R.X",
                                                   include_descendants=False)]
        assert names == ["a"]

    def test_root_prefix_covers_everything_below(self, index):
        assert [c.name for c in index.cores_under("R")] == ["a", "b", "c", "d"]

    def test_unknown_cdo_is_empty(self, index):
        assert index.cores_under("Nope") == []
        assert index.subtree_ids("Nope") == frozenset()

    def test_sibling_prefix_not_confused(self):
        # "A.B" must not capture "A.Bx" (string prefix but not a subtree).
        index = CoreIndex([DesignObject("p", "A.B", {}, {"area": 1.0}),
                           DesignObject("q", "A.Bx", {}, {"area": 1.0})])
        assert [c.name for c in index.cores_under("A.B")] == ["p"]


class TestPostings:
    def test_decision_ids_exclude_policy(self, index):
        ids = index.decision_ids("Tech", "t35")
        assert {index.cores[i].name for i in ids} == {"a", "c"}

    def test_decision_ids_include_policy(self, index):
        ids = index.decision_ids("Tech", "t35", MissingPolicy.INCLUDE)
        # d and e do not document Tech at all and are kept.
        assert {index.cores[i].name for i in ids} == {"a", "c", "d", "e"}

    def test_unhashable_value_falls_back(self):
        odd = DesignObject("odd", "R", {"Taps": [1, 2]}, {"area": 1.0})
        index = CoreIndex([odd])
        assert index.decision_ids("Taps", [1, 2]) == {0}
        assert index.decision_ids("Taps", [3]) == set()


class TestRequirements:
    def test_threshold_on_property(self, index):
        req = Requirement("Width", IntRange(1), "width",
                          sense=RequirementSense.AT_LEAST_SUPPORT)
        ids = index.requirement_ids(req, 32)
        # a (32) and b (64) satisfy; d (16) fails; c and e do not
        # document Width and are unconstrained.
        assert {index.cores[i].name for i in ids} == {"a", "b", "c", "e"}

    def test_merit_fallback(self, index):
        # latency requirement with MAX sense: b (3) and a (5) pass at 5;
        # d has latency as a merit only and fails at 9; c and e are
        # unconstrained.
        req = Requirement("latency_ns", IntRange(0), "lat",
                          sense=RequirementSense.MAX)
        ids = index.requirement_ids(req, 5)
        assert {index.cores[i].name for i in ids} == {"a", "b", "c", "e"}

    def test_merit_bisection(self, index):
        assert {index.cores[i].name
                for i in index.merit_ids_at_most("area", 20.0)} == \
            {"a", "b", "e"}
        assert {index.cores[i].name
                for i in index.merit_ids_at_least("area", 20.0)} == \
            {"b", "c"}


class TestIndexedPrune:
    def test_matches_naive_prune(self, index):
        cores = make_cores()
        req = Requirement("Width", IntRange(1), "width",
                          sense=RequirementSense.AT_LEAST_SUPPORT)
        naive = prune([c for c in cores if c.cdo_name.startswith("R")],
                      {"Tech": "t35"}, [(req, 32)])
        indexed = index.prune("R", {"Tech": "t35"}, [(req, 32)])
        assert indexed.survivor_names == naive.survivor_names
        assert indexed.eliminated == naive.eliminated

    def test_lazy_reasons_not_computed_until_read(self, index):
        report = index.prune("R", {"Tech": "t35"})
        assert report._eliminated is None
        assert "does not document" in report.eliminated["d"]
        assert report._eliminated is not None

    def test_merit_ranges_match_naive(self, index):
        report = index.prune("R", {})
        expected = merit_ranges(report.survivors, ["area", "latency_ns",
                                                   "missing"])
        got = index.merit_ranges_for(set(report.survivor_ids),
                                     ["area", "latency_ns", "missing"])
        assert got == expected
        assert index.merit_ranges_for(report.survivor_ids,
                                      ["area", "latency_ns",
                                       "missing"]) == expected
        assert index.merit_ranges_for(set(), ["area"]) == {}
        assert index.merit_ranges_for(IdSet(), ["area"]) == {}

    def test_survivor_order_is_snapshot_order(self, index):
        report = index.prune("R", {})
        assert report.survivor_names == ["a", "b", "c", "d"]


#: The highest id the IdSet properties use; masks span several words.
HIGH_ID = 4095
ID_LISTS = st.lists(st.integers(0, HIGH_ID) | st.sampled_from([0, HIGH_ID]),
                    max_size=40)


def id_set(ids):
    mask = 0
    for i in ids:
        mask |= 1 << i
    return IdSet(mask)


@settings(max_examples=200, deadline=None)
@given(a=ID_LISTS, b=ID_LISTS)
@example(a=[], b=[])
@example(a=[0], b=[HIGH_ID])
@example(a=[0, HIGH_ID], b=[HIGH_ID])
def test_idset_matches_frozenset(a, b):
    fa, fb = frozenset(a), frozenset(b)
    ia, ib = id_set(a), id_set(b)
    assert list(ia) == sorted(fa)
    assert len(ia) == len(fa)
    assert bool(ia) == bool(fa)
    for i in (0, HIGH_ID, HIGH_ID + 1, -1, *a, *b):
        assert (i in ia) == (i in fa)
    assert "x" not in ia
    assert ia == fa and fa == ia
    assert ia == set(a) and set(a) == ia
    assert (ia == ib) == (fa == fb)
    assert (ia != fb) == (fa != fb)
    for left, right in ((ia, ib), (ia, set(b)), (set(a), ib)):
        for got, want in ((left & right, fa & fb), (left | right, fa | fb),
                          (left - right, fa - fb)):
            assert isinstance(got, IdSet)
            assert got == want
            assert list(got) == sorted(want)


def test_idset_rejects_negative_ids():
    with pytest.raises(ValueError):
        IdSet() | {-1}
    assert IdSet(0b1) != {0, -1}


def test_index_ids_cover_first_and_last_core(index):
    assert list(index.all_ids) == list(range(len(index.cores)))
    assert 0 in index.all_ids and len(index.cores) - 1 in index.all_ids
    assert len(index.cores) not in index.all_ids


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), num_cores=st.integers(1, 900),
       keep=st.integers(1, 64), ties=st.integers(1, 50))
def test_merit_ranges_match_naive_across_rank_blocks(seed, num_cores, keep,
                                                     ties):
    # Enough cores to span several rank blocks; ``ties`` folds merits
    # onto few values, ``keep`` thins the probed id set.
    rnd = random.Random(seed)
    cores = []
    for i in range(num_cores):
        merits = {"area": float(rnd.randrange(ties))}
        if rnd.random() < 0.7:
            merits["latency_ns"] = rnd.uniform(0.0, 100.0)
        cores.append(DesignObject(f"c{i}", "R", {}, merits))
    index = CoreIndex(cores)
    ids = {i for i in range(num_cores) if rnd.randrange(keep) == 0}
    metrics = ["area", "latency_ns", "missing"]
    expected = merit_ranges([cores[i] for i in sorted(ids)], metrics)
    assert index.merit_ranges_for(ids, metrics) == expected
    assert index.merit_ranges_for(id_set(ids), metrics) == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), num_cores=st.integers(1, 900),
       keep=st.integers(1, 64), ties=st.integers(1, 50),
       ends=st.sampled_from(["none", "first", "last", "both", "empty"]))
def test_merit_minima_match_naive_bounds(seed, num_cores, keep, ties, ends):
    # As above, plus documented ``inf`` and ``-inf`` values (whose sum is
    # NaN), an undocumented metric, the empty id set and the first and
    # last core ids.
    rnd = random.Random(seed)
    cores = []
    for i in range(num_cores):
        merits = {"area": float(rnd.randrange(ties))}
        if rnd.random() < 0.7:
            merits["latency_ns"] = rnd.choice(
                [rnd.uniform(0.0, 100.0), float("inf"), float("-inf")])
        cores.append(DesignObject(f"c{i}", "R", {}, merits))
    index = CoreIndex(cores)
    ids = {i for i in range(num_cores) if rnd.randrange(keep) == 0}
    if ends in ("first", "both"):
        ids.add(0)
    if ends in ("last", "both"):
        ids.add(num_cores - 1)
    if ends == "empty":
        ids = set()
    metrics = ["area", "latency_ns", "missing"]
    expected = merit_bounds(merit_ranges(index.materialize(ids), metrics),
                            metrics)
    assert index.merit_minima(ids, metrics) == expected
    assert index.merit_minima(id_set(ids), metrics) == expected


class TestNanMerits:
    """NaN passes no requirement and is dominated by nothing; the index
    must neither rank it among the numbers nor hide it from a bound."""

    @pytest.fixture()
    def cores(self):
        nan = float("nan")
        return [DesignObject(f"c{i}", "R", {}, {"area": area, "power": 1.0})
                for i, area in enumerate([3.0, nan, 1.0, 2.0, nan, 0.5])]

    def test_minima_are_nan_only_where_a_survivor_holds_nan(self, cores):
        index = CoreIndex(cores)
        nan_area, power = index.merit_minima({0, 1, 3}, ["area", "power"])
        assert math.isnan(nan_area) and power == 1.0
        # Without a NaN holder the minimum is exact even though the
        # metric has NaN holders elsewhere.
        assert index.merit_minima({0, 2, 3}, ["area", "power"]) == (1.0, 1.0)
        assert index.merit_minima({0, 3}, ["area"]) == (2.0,)
        assert index.merit_ranges_for({0, 2, 3}, ["area"]) == {
            "area": (1.0, 3.0)}

    def test_ranges_and_minima_share_the_nan_rule(self, cores):
        # Over every subset: a NaN holder makes the range (nan, nan), so
        # merit_bounds of the ranges (branch-and-bound's option bound) is
        # the leaf bound's ideal point; without one, the naive scan holds.
        index = CoreIndex(cores)
        metrics = ["area", "power", "missing"]
        for subset in range(1 << len(cores)):
            ids = {i for i in range(len(cores)) if subset >> i & 1}
            ranges = index.merit_ranges_for(ids, metrics)
            minima = index.merit_minima(ids, metrics)
            assert repr(minima) == repr(merit_bounds(ranges, metrics))
            if ids & {1, 4}:
                assert repr(ranges["area"]) == "(nan, nan)"
            else:
                assert ranges == merit_ranges(
                    [cores[i] for i in sorted(ids)], metrics)

    @pytest.mark.parametrize("sense", [RequirementSense.MAX,
                                       RequirementSense.MIN,
                                       RequirementSense.EXACT])
    @pytest.mark.parametrize("bound", [0.0, 0.5, 1.0, 2.5, 3, 10.0, "3.0"])
    def test_requirements_on_nan_merits_match_naive(self, cores, sense,
                                                    bound):
        # EXACT and the non-numeric "3.0" take the grouped-equality path.
        req = Requirement("area", IntRange(0, 100), "area", sense=sense)
        want = prune(cores, {}, [(req, bound)]).survivor_names
        got = CoreIndex(cores).prune("R", {}, [(req, bound)])
        assert got.survivor_names == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 5000) | st.sampled_from([0, 1, (1 << 4096) - 1]))
def test_idset_len_is_the_popcount(mask):
    want = bin(mask).count("1")
    assert len(IdSet(mask)) == want
    # The fallback used where ``int.bit_count`` is missing (Python 3.9).
    assert _bin_popcount(mask) == want


def test_prune_defers_the_core_list(monkeypatch):
    index = CoreIndex(make_cores())
    calls = []
    materialize = index.materialize
    monkeypatch.setattr(index, "materialize",
                        lambda ids: calls.append(1) or materialize(ids))
    report = index.prune("R", {"Tech": "t35"})
    assert len(report.survivor_ids) == 2 and calls == []
    assert report.survivor_names == ["a", "c"]
    assert report.survivors is report.survivors and calls == [1]


def _naive_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("mask", [
    0,
    1,
    1 << 49_999,
    (1 << 50_000) - 1,
    sum(1 << i for i in range(0, 50_000, 8)),
    sum(1 << i for i in range(3, 50_000, 32)),
    sum(1 << i for i in range(7, 50_000, 320)),
    sum(1 << i for i in range(0, 50_000, 63)),
    sum(1 << i for i in range(0, 50_000, 65)),
], ids=["empty", "bit0", "top", "all", "per8", "per32", "per320", "per63",
        "per65"])
def test_bits_match_a_naive_scan(mask):
    assert _bits(mask) == _naive_bits(mask)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 5000),
       density=st.floats(0.0, 1.0))
def test_bits_match_a_naive_scan_at_random_densities(seed, size, density):
    rnd = random.Random(seed)
    mask = sum(1 << i for i in range(size) if rnd.random() < density)
    assert _bits(mask) == _naive_bits(mask)


#: Merit values with ties, both zeros, inf and NaN; None leaves the
#: merit undocumented.
SKYLINE_VALUES = st.sampled_from(
    [None, 0.0, -0.0, 1.0, 1.0, 2.0, 3.0, math.inf, math.nan])

#: ``z`` is a metric no core documents.
SKYLINE_METRICS = st.lists(st.sampled_from(["a", "b", "c", "z"]),
                           min_size=1, max_size=3, unique=True)


def _naive_skyline(cores, ids, metrics):
    """Ids that no other id strictly dominates, by ``dominates``."""
    from repro.core.evaluation import dominates

    def coords(i):
        merits = cores[i].merits
        return tuple(merits.get(m, math.inf) for m in metrics)
    return [i for i in sorted(ids)
            if not any(dominates(coords(j), coords(i)) for j in ids)]


class TestSkyline:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(SKYLINE_VALUES, SKYLINE_VALUES,
                              SKYLINE_VALUES), max_size=24),
           SKYLINE_METRICS, st.data())
    def test_matches_a_brute_force_filter(self, values, metrics, data):
        cores = [DesignObject(f"c{i}", "R", {},
                              {m: v for m, v in zip("abc", row)
                               if v is not None})
                 for i, row in enumerate(values)]
        index = CoreIndex(cores)
        everything = st.sets(st.integers(0, len(cores) - 1)) \
            if cores else st.just(set())
        within = data.draw(everything)
        ids = data.draw(st.sets(st.sampled_from(sorted(within)))
                        if within else st.just(set()))
        want = _naive_skyline(cores, ids, metrics)
        for _ in range(2):  # the second call reuses the kept order
            assert index.skyline(ids, metrics) == want
            assert index.skyline(ids, metrics, within=within) == want
            assert index.skyline(IdSet(_mask_of(ids)), metrics,
                                 within=IdSet(_mask_of(within))) == want

    def test_ties_zeros_and_inf(self):
        cores = [DesignObject("p", "R", {}, {"a": 1.0, "b": math.inf}),
                 DesignObject("q", "R", {}, {"a": 2.0, "b": 0.0}),
                 DesignObject("r", "R", {}, {"a": 2.0, "b": -0.0}),
                 DesignObject("s", "R", {}, {"a": 2.0, "b": 1.0}),
                 DesignObject("t", "R", {}, {"a": 1.0}),
                 DesignObject("u", "R", {}, {"a": 0.0, "b": 0.0})]
        index = CoreIndex(cores)
        first = IdSet(_mask_of(range(5)))
        # p and t tie at (1, inf), which an earlier group must not
        # reject; q and r tie at (2, 0); s is dominated by q.
        assert index.skyline(first, ("a", "b")) == [0, 1, 2, 4]
        assert index.skyline(first, ("b",)) == [1, 2]
        assert index.skyline(first, ("z",)) == [0, 1, 2, 3, 4]
        # u dominates all of them, but is not among the ids.
        for metrics in (("a", "b"), ("b",), ("z",)):
            assert index.skyline(first, metrics, within=index.all_ids) \
                == index.skyline(first, metrics)
        assert index.skyline(index.all_ids, ("a", "b")) == [5]
        # Without q, r's -0.0 is the least b of its group.
        assert index.skyline({0, 2, 3, 4}, ("a", "b"),
                             within=index.all_ids) == [0, 2, 4]

    def test_nan_holders_are_always_kept(self):
        cores = [DesignObject("p", "R", {}, {"a": 0.0, "b": 0.0}),
                 DesignObject("q", "R", {}, {"a": math.nan, "b": 5.0}),
                 DesignObject("r", "R", {}, {"a": 1.0, "b": 1.0})]
        index = CoreIndex(cores)
        assert index.skyline(index.all_ids, ("a", "b")) == [0, 1]
        assert index.skyline(index.all_ids, ("b",)) == [0]
        assert index.skyline({1, 2}, ("a", "b"),
                             within=index.all_ids) == [1, 2]
        assert index.skyline({1}, ("a", "b"), within=index.all_ids) == [1]

    def test_kept_orders_stay_within_the_index_size(self):
        rnd = random.Random(7)
        cores = [DesignObject(f"c{i}", "R", {},
                              {"a": float(rnd.randrange(20)),
                               "b": float(rnd.randrange(20)),
                               "c": float(rnd.randrange(20))})
                 for i in range(600)]
        index = CoreIndex(cores)
        for metrics in (("a", "b"), ("a", "b", "c")):
            for _ in range(150):  # far more distinct masks than room
                within = {i for i in range(len(cores)) if rnd.random() < 0.3}
                ids = {i for i in within if rnd.random() < 0.7}
                for _ in range(2):  # the second sight keeps the order
                    assert index.skyline(ids, metrics, within=within) \
                        == _naive_skyline(cores, ids, metrics)
                held = sum(len(order or ()) + (scope.bit_length() >> 8)
                           for (_, scope), order in index._orders.items())
                assert held <= len(index)
        # Some were kept before the room ran out.
        assert any(order for order in index._orders.values())

    def test_a_scope_is_kept_the_second_time_it_is_seen(self):
        cores = [DesignObject(f"c{i}", "R", {},
                              {"a": float(i % 3), "b": float(-i)})
                 for i in range(6)]
        index = CoreIndex(cores)
        within = IdSet(_mask_of(range(6)))
        key = (("a", "b"), 0b111111)
        assert index.skyline({1, 4}, ("a", "b"), within=within) == [4]
        assert index._orders == {key: None}  # seen once: only ids sorted
        assert index.skyline({1, 2}, ("a", "b"), within=within) == [1, 2]
        assert [point[-1] for point in index._orders[key]] \
            == [3, 0, 4, 1, 5, 2]
        assert index.skyline({0, 3}, ("a", "b"), within=within) == [3]
        # Without ``within`` the ids are the scope, kept at first sight.
        index = CoreIndex(cores)
        assert index.skyline({0, 3}, ("b",)) == [3]
        assert index._orders[(("b",), 0b1001)] == [(-3.0, 3), (0.0, 0)]

    def test_coords_read_inf_for_undocumented_merits(self):
        cores = [DesignObject("p", "R", {}, {"a": 1.0}),
                 DesignObject("q", "R", {}, {"b": 2.0})]
        index = CoreIndex(cores)
        assert index.merit_coords(0, ("a", "b", "z")) == (1.0, math.inf,
                                                          math.inf)
        assert index.merit_coords(1, ("a", "b")) == (math.inf, 2.0)

    def test_repeated_names(self):
        index = CoreIndex([DesignObject(name, "R", {}, {})
                           for name in ("p", "q", "p", "r")])
        assert index.repeated_names == {0, 2}
        assert not CoreIndex(make_cores()).repeated_names


def named_index(names):
    return CoreIndex([DesignObject(name, "R", {}, {}) for name in names])


class TestIdsDigest:
    NAMES = [f"c{i}" for i in range(17)]

    @pytest.mark.parametrize("ids, flipped", [
        ({3, 9}, 0),               # lowest id
        ({0, 9}, 16),              # highest id
        (set(range(8)), 8),        # top bit: the mask grows a byte
        (set(), 0),                # empty vs one id
    ])
    def test_one_bit_changes_the_digest(self, ids, flipped):
        index = named_index(self.NAMES)
        assert (index.ids_digest(id_set(ids))
                != index.ids_digest(id_set(ids ^ {flipped})))

    @pytest.mark.parametrize("other", [
        NAMES[:-1] + ["c99"],            # another name
        NAMES[1:] + NAMES[:1],           # the same names, rotated
        NAMES[:2][::-1] + NAMES[2:],     # two names swapped
    ])
    def test_equal_masks_over_other_names_differ(self, other):
        ids = id_set({0, 1, 5, 16})
        assert (named_index(self.NAMES).ids_digest(ids)
                != named_index(other).ids_digest(ids))

    def test_equal_across_independent_builds_and_epochs(self):
        def report(layer):
            session = ExplorationSession(layer, "Widget")
            session.set_requirement("Width", 64)
            return session.prune_report()

        first, second = build_widget_layer(), build_widget_layer()
        before = report(first)
        assert before.index is not report(second).index
        assert before.digest() == report(second).digest()
        first.libraries._bump()
        after = report(first)
        assert after.index is not before.index
        assert after.digest() == before.digest()

    def test_plain_report_keeps_the_names_digest(self, index):
        indexed = index.prune("R", {"Tech": "t35"})
        naive = prune(make_cores()[:4], {"Tech": "t35"})
        assert naive.digest() == names_digest(["a", "c"])
        assert indexed.digest() == index.ids_digest(id_set({0, 2}))
        assert indexed.digest() != naive.digest()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 3000),
       density=st.floats(0.0, 1.0),
       limit=st.one_of(st.integers(1, 400), st.integers(10**6, 10**15)))
def test_first_names_are_the_lowest_ids_names(seed, size, density, limit):
    rng = random.Random(seed)
    index = named_index([f"n{i}" for i in range(size)])
    ids = id_set({i for i in range(size) if rng.random() < density})
    want = [index.names[i] for i in sorted(ids)][:limit]
    assert index.first_names(ids, limit) == want
