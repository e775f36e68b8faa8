"""Pushed epochs: every mutation bumps the counters it moves.

A core bumps the libraries holding it, a library the federations it is
attached to, a federation, constraint set or root CDO the layers it
serves.  Reading ``layer.epoch`` or ``federation.epoch`` is then a plain
attribute read: it takes no lock, and every epoch-keyed cache (index,
hierarchy, session memo) still sees each mutation on its next read.
"""

import sys
import threading

import pytest

from repro.core import (
    ClassOfDesignObjects,
    ConsistencyConstraint,
    DesignIssue,
    DesignObject,
    EnumDomain,
    ExplorationSession,
    InconsistentOptions,
    ReuseLibrary,
)

from conftest import build_widget_layer


@pytest.fixture()
def tight_gil():
    """Hand the GIL over as often as the interpreter allows."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def hw_core(name, area=50.0):
    return DesignObject(name, "Widget.hw",
                        {"Tech": "t35", "Pipeline": 1, "Width": 64},
                        {"area": area, "latency_ns": 5.0, "MaxDelay": 5.0})


def names(session):
    return {core.name for core in session.candidates()}


def test_epoch_reads_take_no_lock():
    layer = build_widget_layer()
    federation = layer.libraries
    held = threading.Event()
    release = threading.Event()

    def holder():
        with layer._cache_lock, federation._lock:
            held.set()
            release.wait(10)

    owner = threading.Thread(target=holder)
    owner.start()
    assert held.wait(5)
    seen = []
    reader = threading.Thread(
        target=lambda: seen.append((layer.epoch, federation.epoch)))
    reader.start()
    try:
        reader.join(timeout=2)
        assert not reader.is_alive(), "an epoch read waited on a lock"
        assert seen == [(layer._epoch, federation._epoch)]
    finally:
        release.set()
        owner.join()
        reader.join()


def test_every_mutation_site_is_seen_by_the_next_read(tight_gil):
    layer = build_widget_layer()
    library = layer.libraries.library("lib-a")
    h1, h3 = library.get("h1"), library.get("h3")
    # one long-lived session: its memo keys on the layer epoch
    session = ExplorationSession(layer, "Widget")
    session.set_requirement("Width", 64)
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                layer.epoch
                layer.libraries.index()
                ExplorationSession(layer, "Widget").candidates()
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def moved(before):
        assert layer.epoch > before
        return layer.epoch

    def writer():
        epoch = layer.epoch
        for n in range(20):
            # core merit and property
            area = 1.0 + n / 1000
            h1.set_merit("area", area)
            epoch = moved(epoch)
            assert session.fom_ranges(["area"])["area"][0] == area
            index = layer.libraries.index()
            assert index.merit_ranges_for(
                index.all_ids, ["area"])["area"][0] == area
            h3.set_property("Width", 64 if n % 2 == 0 else 32)
            epoch = moved(epoch)
            assert ("h3" in names(session)) == (n % 2 == 0)
            # library add / remove
            library.add(hw_core(f"x{n}"))
            epoch = moved(epoch)
            assert f"x{n}" in names(session)
            library.remove(f"x{n}")
            epoch = moved(epoch)
            assert f"x{n}" not in names(session)
            # attach / detach
            extra = ReuseLibrary(f"lib-x{n}", "extra library")
            extra.add(hw_core(f"y{n}"))
            layer.attach_library(extra)
            epoch = moved(epoch)
            assert f"y{n}" in names(session)
            layer.libraries.detach(f"lib-x{n}")
            epoch = moved(epoch)
            assert f"y{n}" not in names(session)
            # hierarchy edits below a root added after construction
            root = ClassOfDesignObjects(f"Gadget{n}", "a late root")
            layer.add_root(root)
            epoch = moved(epoch)
            assert layer.has_cdo(f"Gadget{n}")
            root.add_property(DesignIssue(
                "Kind", EnumDomain(["a", "b"]), "kind", generalized=True))
            epoch = moved(epoch)
            root.specialize("a")
            epoch = moved(epoch)
            assert layer.has_cdo(f"Gadget{n}.a")
            assert f"Gadget{n}.a" in {c.qualified_name
                                      for c in layer.all_cdos()}
            # alias
            layer.add_alias(f"W{n}", "Widget.hw")
            epoch = moved(epoch)
            assert layer.cdo(f"W{n}").qualified_name == "Widget.hw"
            # a constraint added to the set directly, not via the layer
            layer.constraints.add(ConsistencyConstraint(
                f"CC{n}", "orders Style after MaxDelay",
                independents={"D": "MaxDelay@Widget"},
                dependents={"S": "Style@Widget"},
                relation=InconsistentOptions(lambda b: False, "never")))
            epoch = moved(epoch)
            assert f"CC{n}" in {c.name for c in session.pending_constraints()}
            # estimation tool
            layer.register_tool(f"tool{n}", lambda *args: 0.0)
            epoch = moved(epoch)
            assert f"tool{n}" in layer.tools

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for thread in readers:
        thread.start()
    try:
        writer()
    finally:
        stop.set()
        for thread in readers:
            thread.join()
    assert errors == []


def test_a_library_in_two_layers_pushes_to_both():
    first, second = build_widget_layer(), build_widget_layer()
    shared = ReuseLibrary("shared", "one library, two layers")
    core = shared.add(hw_core("z1", area=80.0))
    first.attach_library(shared)
    second.attach_library(shared)

    def min_area(layer):
        index = layer.libraries.index()
        return index.merit_ranges_for(index.all_ids, ["area"])["area"][0]

    assert min_area(first) == min_area(second) == 80.0
    before = (first.epoch, second.epoch)
    core.set_merit("area", 3.0)
    assert first.epoch > before[0] and second.epoch > before[1]
    assert min_area(first) == min_area(second) == 3.0

    first.libraries.detach("shared")
    before = (first.epoch, second.epoch)
    core.set_merit("area", 2.0)
    assert first.epoch == before[0]
    assert second.epoch > before[1]
    assert min_area(second) == 2.0
    assert min_area(first) == 100.0
