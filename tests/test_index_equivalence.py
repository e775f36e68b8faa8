"""Property-based equivalence: indexed pruning ≡ naive pruning.

The indexed query engine must be a pure optimisation: over randomized
layers and random query mixes, the survivors (including order), the
elimination reasons and the figure-of-merit ranges must be identical to
the naive linear-scan filter in :mod:`repro.core.pruning`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CoreIndex,
    DesignObject,
    DesignSpaceLayer,
    ExplorationSession,
    MissingPolicy,
)
from repro.core.library import _is_same_or_descendant
from repro.core.pruning import merit_ranges, prune
from repro.testing import random_core_population_layer as random_layer
from repro.testing.stress import FAMILIES, TECHS, VARIANTS


def naive_cores_under(layer: DesignSpaceLayer, cdo_name: str):
    """Reference implementation: linear scan in federation order."""
    return [core for core in layer.libraries
            if _is_same_or_descendant(core.cdo_name, cdo_name)]


def assert_reports_equal(indexed, naive):
    assert indexed.survivor_names == naive.survivor_names
    assert [id(c) for c in indexed.survivors] == [id(c) for c in naive.survivors]
    assert indexed.eliminated == naive.eliminated
    assert merit_ranges(indexed.survivors, ["area", "latency_ns"]) == \
        merit_ranges(naive.survivors, ["area", "latency_ns"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       num_cores=st.integers(1, 120),
       cdo=st.sampled_from(["Block"] + [f"Block.{f}" for f in FAMILIES]),
       variant=st.none() | st.sampled_from(VARIANTS),
       tech=st.none() | st.sampled_from(TECHS),
       width=st.none() | st.sampled_from([8, 16, 32, 64]),
       max_area=st.none() | st.integers(0, 600),
       policy=st.sampled_from(list(MissingPolicy)))
def test_indexed_prune_equivalent_to_naive(seed, num_cores, cdo, variant,
                                           tech, width, max_area, policy):
    layer = random_layer(seed, num_cores)
    root = layer.cdo("Block")
    decisions = {}
    if variant is not None:
        decisions["Variant"] = variant
    if tech is not None:
        decisions["Tech"] = tech
    requirements = []
    if width is not None:
        requirements.append((root.find_property("Width"), width))
    if max_area is not None:
        requirements.append((root.find_property("MaxArea"), max_area))
    naive = prune(naive_cores_under(layer, cdo), decisions, requirements,
                  policy)
    indexed = layer.libraries.index().prune(cdo, decisions, requirements,
                                            policy)
    assert_reports_equal(indexed, naive)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), num_cores=st.integers(5, 80),
       family=st.sampled_from(FAMILIES),
       width=st.none() | st.sampled_from([8, 16, 32, 64]))
def test_session_queries_equivalent_to_naive(seed, num_cores, family, width):
    """candidates(), fom_ranges() and available_options() agree with a
    from-scratch naive prune at every step."""
    layer = random_layer(seed, num_cores)
    session = ExplorationSession(layer, "Block")
    if width is not None:
        session.set_requirement("Width", width)
    session.decide("Family", family)

    def naive_report(extra=None):
        decisions = {}
        if extra:
            decisions.update(extra)
        requirements = [(layer.cdo("Block").find_property("Width"), width)] \
            if width is not None else []
        return prune(naive_cores_under(layer, f"Block.{family}"),
                     decisions, requirements)

    expected = naive_report()
    assert session.prune_report().survivor_names == expected.survivor_names
    assert session.prune_report().eliminated == expected.eliminated
    assert session.fom_ranges() == merit_ranges(expected.survivors,
                                                ("area", "latency_ns"))
    infos = session.available_options("Variant")
    assert [info.option for info in infos] == list(VARIANTS)
    for info in infos:
        per_option = naive_report(extra={"Variant": info.option})
        assert info.candidate_count == len(per_option.survivors)
        assert info.ranges == merit_ranges(per_option.survivors,
                                           ("area", "latency_ns"))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), num_cores=st.integers(1, 80),
       variant=st.none() | st.sampled_from(VARIANTS),
       tech=st.none() | st.sampled_from(TECHS))
def test_query_interface_equivalent_to_naive(seed, num_cores, variant, tech):
    from repro.core import CoreQuery

    layer = random_layer(seed, num_cores)
    where = {}
    if variant is not None:
        where["Variant"] = variant
    if tech is not None:
        where["Tech"] = tech
    got = CoreQuery(layer).under("Block").where(**where).names()
    expected = [core.name for core in naive_cores_under(layer, "Block")
                if all(core.has_property(k) and core.property_value(k) == v
                       for k, v in where.items())]
    assert got == expected


def test_fresh_index_over_mutated_snapshot():
    """A CoreIndex built directly always reflects the cores it was given."""
    cores = [DesignObject(f"c{i}", "A.B", {"K": i % 2}, {"area": float(i)})
             for i in range(10)]
    index = CoreIndex(cores)
    report = index.prune("A", {"K": 0})
    assert report.survivor_names == [f"c{i}" for i in range(0, 10, 2)]


#: CDO names a library's cores sit under, plus query-only names: a
#: name-prefix that is not a hierarchy ancestor ("Block.f"), and a name
#: no core uses.
CDO_NAMES = ("Block", "Block.f0", "Block.f1", "Block.f1.x", "Block.f10")
QUERY_NAMES = CDO_NAMES + ("Block.f", "Other")


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 11),
                              st.sampled_from(CDO_NAMES)),
                    max_size=40))
def test_library_cores_under_equivalent_to_naive(ops):
    """``ReuseLibrary.cores_under`` equals the naive descendant scan
    after any sequence of adds and removes."""
    from repro.core import ReuseLibrary

    library = ReuseLibrary("lib", "random adds and removes")
    for add, n, cdo_name in ops:
        name = f"c{n}"
        if add and name not in library:
            library.add(DesignObject(name, cdo_name, {}, {}))
        elif not add and name in library:
            library.remove(name)
        for query in QUERY_NAMES:
            assert library.cores_under(query) == [
                core for core in library
                if _is_same_or_descendant(core.cdo_name, query)]
            assert library.cores_under(query, include_descendants=False) \
                == [core for core in library if core.cdo_name == query]
