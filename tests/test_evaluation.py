"""Evaluation space: dominance, Pareto frontier, windows, distances."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.designobject import DesignObject
from repro.core.evaluation import (
    EvaluationPoint,
    EvaluationSpace,
    dominates,
)
from repro.errors import ReproError


def space_2d():
    points = [
        EvaluationPoint("p1", (1.0, 9.0)),
        EvaluationPoint("p2", (3.0, 5.0)),
        EvaluationPoint("p3", (5.0, 5.0)),   # dominated by p2
        EvaluationPoint("p4", (8.0, 1.0)),
        EvaluationPoint("p5", (9.0, 9.0)),   # dominated by everything
    ]
    return EvaluationSpace(("delay", "area"), points)


#: Axis values with many ties, both zeros and both infinities.
AXIS_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf]),
    st.floats(allow_nan=False))


def reference_dominates(a, b):
    """The generator-based definition ``dominates`` must agree with."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


class TestDominates:
    def test_strict_dominance(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1, 1), (1, 1))

    def test_incomparable(self):
        assert not dominates((1, 5), (5, 1))
        assert not dominates((5, 1), (1, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(ReproError):
            dominates((1,), (1, 2))
        with pytest.raises(ReproError):
            dominates([1.0, 2.0], (1.0,))

    def test_signed_zero_is_a_tie(self):
        assert not dominates((-0.0, 1.0), (0.0, 1.0))
        assert not dominates((0.0, 1.0), (-0.0, 1.0))
        assert dominates((-0.0, 1.0), (0.0, 2.0))

    def test_inf_axis(self):
        assert dominates((1.0, 1.0), (1.0, math.inf))
        assert not dominates((1.0, math.inf), (1.0, math.inf))
        assert not dominates((0.0, math.inf), (1.0, 5.0))

    def test_list_against_tuple(self):
        assert dominates([1.0, 1.0], (2.0, 1.0))
        assert not dominates((1.0, 1.0), [1.0, 1.0])

    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(AXIS_VALUES, min_size=n, max_size=n),
            st.lists(AXIS_VALUES, min_size=n, max_size=n),
            st.booleans())))
    def test_matches_generator_reference(self, case):
        a, b, a_as_list = case
        left = a if a_as_list else tuple(a)
        assert dominates(left, tuple(b)) == reference_dominates(a, b)
        assert dominates(tuple(b), left) == reference_dominates(b, a)
        assert not dominates(left, tuple(a))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=4))
    def test_antisymmetric(self, coords):
        other = tuple(c + 1 for c in coords)
        if dominates(tuple(coords), other):
            assert not dominates(other, tuple(coords))


class TestEvaluationSpace:
    def test_needs_metric(self):
        with pytest.raises(ReproError):
            EvaluationSpace(())

    def test_dimension_checked_on_add(self):
        space = EvaluationSpace(("a", "b"))
        with pytest.raises(ReproError):
            space.add(EvaluationPoint("x", (1.0,)))

    def test_pareto_frontier(self):
        frontier = {p.name for p in space_2d().pareto_frontier()}
        assert frontier == {"p1", "p2", "p4"}

    def test_dominated_points(self):
        dominated = {p.name for p in space_2d().dominated_points()}
        assert dominated == {"p3", "p5"}

    def test_identical_points_both_survive(self):
        space = EvaluationSpace(("m",), [EvaluationPoint("a", (1.0,)),
                                         EvaluationPoint("b", (1.0,))])
        assert {p.name for p in space.pareto_frontier()} == {"a", "b"}

    def test_ranges(self):
        ranges = space_2d().ranges()
        assert ranges["delay"] == (1.0, 9.0)
        assert ranges["area"] == (1.0, 9.0)

    def test_best(self):
        assert space_2d().best("delay").name == "p1"
        assert space_2d().best("area").name == "p4"

    def test_best_unknown_metric(self):
        with pytest.raises(ReproError):
            space_2d().best("power")

    def test_best_empty_space(self):
        with pytest.raises(ReproError):
            EvaluationSpace(("m",)).best("m")

    def test_within_window(self):
        names = {p.name for p in space_2d().within(
            {"delay": (2.0, 6.0), "area": (None, 5.0)})}
        assert names == {"p2", "p3"}

    def test_point_lookup(self):
        assert space_2d().point("p3").coords == (5.0, 5.0)
        with pytest.raises(ReproError):
            space_2d().point("nope")

    def test_scales_avoid_zero(self):
        space = EvaluationSpace(("m",), [EvaluationPoint("a", (3.0,)),
                                         EvaluationPoint("b", (3.0,))])
        assert space.scales() == (1.0,)

    def test_from_designs(self):
        designs = [DesignObject("d1", "X", {}, {"area": 5.0, "delay": 2.0}),
                   DesignObject("d2", "X", {}, {"area": 1.0, "delay": 9.0})]
        space = EvaluationSpace.from_designs(designs, ("delay", "area"))
        assert len(space) == 2
        assert space.point("d1").design is designs[0]

    def test_from_designs_skip_missing(self):
        designs = [DesignObject("d1", "X", {}, {"area": 5.0}),
                   DesignObject("d2", "X", {}, {"area": 1.0, "delay": 9.0})]
        space = EvaluationSpace.from_designs(designs, ("delay", "area"),
                                             skip_missing=True)
        assert [p.name for p in space] == ["d2"]

    def test_from_designs_strict_raises(self):
        designs = [DesignObject("d1", "X", {}, {"area": 5.0})]
        with pytest.raises(Exception):
            EvaluationSpace.from_designs(designs, ("delay", "area"))

    def test_describe_marks_pareto(self):
        text = space_2d().describe()
        assert "Pareto" in text
        assert "p1" in text


class TestDistances:
    def test_euclidean(self):
        a = EvaluationPoint("a", (0.0, 0.0))
        b = EvaluationPoint("b", (3.0, 4.0))
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_normalized(self):
        a = EvaluationPoint("a", (0.0, 0.0))
        b = EvaluationPoint("b", (10.0, 0.0))
        assert a.distance_to(b, scales=(10.0, 1.0)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ReproError):
            EvaluationPoint("a", (1.0,)).distance_to(
                EvaluationPoint("b", (1.0, 2.0)))
