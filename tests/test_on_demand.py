"""Facts a walk may never read are computed only when read.

* An option's merit ranges (``OptionInfo.ranges``) are computed on the
  first read, over the index the options were computed from.  No
  strategy reads them: exhaustive and branch-and-bound bound an option
  by the ideal point of its candidate ids (``merit_minima``).
* A prune report names and fingerprints its survivors from the index's
  name list, without building the survivor core list.
"""

import math

import pytest

from repro.core import DesignObject, ExplorationProblem
from repro.core.explore import explore
from repro.core.index import CoreIndex
from repro.core.pruning import merit_ranges, prune
from repro.core.session import ExplorationSession, OptionInfo
from repro.testing import random_hierarchy_layer

from conftest import build_widget_layer

METRICS = ("area", "latency_ns")


@pytest.fixture()
def range_calls(monkeypatch):
    """Counts ``CoreIndex.merit_ranges_for`` calls."""
    calls = []
    original = CoreIndex.merit_ranges_for

    def counting(index, ids, metrics):
        calls.append(1)
        return original(index, ids, metrics)

    monkeypatch.setattr(CoreIndex, "merit_ranges_for", counting)
    return calls


@pytest.fixture()
def bound_calls(monkeypatch):
    """Counts ``CoreIndex.merit_minima`` calls."""
    calls = []
    original = CoreIndex.merit_minima

    def counting(index, ids, metrics):
        calls.append(1)
        return original(index, ids, metrics)

    monkeypatch.setattr(CoreIndex, "merit_minima", counting)
    return calls


class TestRangeProbes:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_exhaustive_computes_no_option_ranges(self, range_calls,
                                                  bound_calls, seed):
        problem = ExplorationProblem(start="R", metrics=METRICS,
                                     layer=random_hierarchy_layer(seed))
        full = explore(problem, strategy="exhaustive")
        assert full.stats.opened > 0
        assert range_calls == []
        bnb = explore(problem, strategy="bnb")
        assert range_calls == []
        assert len(bound_calls) > 0
        assert bnb.frontier.digest() == full.frontier.digest()

    def test_bnb_reads_bounds_not_ranges(self, range_calls, bound_calls):
        problem = ExplorationProblem(start="Widget", metrics=METRICS,
                                     layer=build_widget_layer())
        full = explore(problem, strategy="exhaustive")
        bnb = explore(problem, strategy="bnb")
        assert len(bound_calls) > 0
        assert bnb.frontier.digest() == full.frontier.digest()
        assert range_calls == []


class TestLazyRanges:
    def test_ranges_are_computed_on_first_read_and_kept(self, range_calls):
        session = ExplorationSession(build_widget_layer(), "Widget.hw")
        infos = session.available_options("Tech")
        assert range_calls == []
        first = infos[0].ranges
        assert len(range_calls) == 1
        assert infos[0].ranges is first and len(range_calls) == 1

    def test_lazy_ranges_equal_the_naive_scan(self):
        layer = build_widget_layer()
        session = ExplorationSession(layer, "Widget.hw")
        cores = session.candidates()
        for info in session.available_options("Tech"):
            chosen = prune(cores, {"Tech": info.option}).survivors
            assert info.candidate_count == len(chosen)
            assert info.ranges == merit_ranges(chosen, METRICS)

    def test_nan_holder_reads_nan_range(self):
        nan = float("nan")
        layer = build_widget_layer()
        layer.libraries.libraries[0].add(DesignObject(
            "h9", "Widget.hw", {"Tech": "t70", "Pipeline": 4, "Width": 16},
            {"area": nan, "latency_ns": 1.0, "MaxDelay": 1.0}))
        session = ExplorationSession(layer, "Widget.hw")
        infos = {info.option: info
                 for info in session.available_options("Tech")}
        low, high = infos["t70"].ranges["area"]
        assert math.isnan(low) and math.isnan(high)
        assert infos["t70"].ranges["latency_ns"] == (1.0, 22.0)
        assert infos["t35"].ranges == {"area": (100.0, 140.0),
                                       "latency_ns": (6.0, 10.0)}

    def test_read_after_mutation_describes_the_computed_space(self):
        layer = build_widget_layer()
        session = ExplorationSession(layer, "Widget.hw")
        infos = {info.option: info
                 for info in session.available_options("Tech")}
        layer.libraries.get("h1").set_merit("area", 1.0)
        layer.libraries.libraries[0].add(DesignObject(
            "h9", "Widget.hw", {"Tech": "t35", "Pipeline": 4, "Width": 16},
            {"area": 10.0, "latency_ns": 1.0, "MaxDelay": 1.0}))
        assert len(session.candidates()) == 4  # the live session moved on
        assert session.fom_ranges()["area"] == (1.0, 260.0)
        assert infos["t35"].candidate_count == 2
        assert infos["t35"].ranges == {"area": (100.0, 140.0),
                                       "latency_ns": (6.0, 10.0)}

    def test_eq_and_repr_include_the_ranges(self):
        eager = OptionInfo("x", False, "", 2, {"area": (1.0, 2.0)})
        lazy = OptionInfo("x", False, "", 2,
                          ranges_factory=lambda: {"area": (1.0, 2.0)})
        other = OptionInfo("x", False, "", 2,
                           ranges_factory=lambda: {"area": (1.0, 3.0)})
        assert eager == lazy and eager != other
        assert repr(lazy) == repr(eager) == (
            "OptionInfo(option='x', eliminated=False, elimination_reason='',"
            " candidate_count=2, ranges={'area': (1.0, 2.0)})")
        assert OptionInfo("y", True, "gone", 0).ranges == {}


class TestSurvivorNames:
    def test_names_and_digest_never_build_the_core_list(self):
        layer = build_widget_layer()
        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 64)
        report = session.prune_report()
        naive = prune(list(layer.libraries), {},
                      [(session.current_cdo.find_property("Width"), 64)])
        index = report.index
        position = {id(core): i for i, core in enumerate(index.cores)}
        naive_ids = index.all_ids & {position[id(core)]
                                     for core in naive.survivors}
        assert report.digest() == index.ids_digest(naive_ids)
        assert report.survivor_names == naive.survivor_names
        assert report.survivor_names is report.survivor_names
        assert report._survivors is None
        assert [c.name for c in report.survivors] == naive.survivor_names
