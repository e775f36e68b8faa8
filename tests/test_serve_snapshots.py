"""SnapshotManager: one epoch bump invalidates the served verify cache.

The manager checks the layer epoch out once per access; these tests pin
that one library mutation drops every cached verify report through
exactly one generation bump.
"""

import pytest

from repro.core import DesignObject
from repro.core.obs.metrics import MetricsRegistry
from repro.serve import SnapshotManager

from conftest import build_widget_layer


@pytest.fixture()
def layer():
    return build_widget_layer()


@pytest.fixture()
def manager(layer):
    return SnapshotManager(layer)


class TestCaching:
    def test_verify_report_is_cached_between_accesses(self, manager):
        first = manager.verify(requirements=(("Width", 64),))
        assert manager.verify(requirements=(("Width", 64),)) is first

    def test_verify_cache_is_keyed_by_requirements_and_start(self, manager):
        base = manager.verify()
        assert manager.verify(requirements=(("Width", 64),)) is not base
        assert manager.verify(start="Widget.hw") is not base

    def test_requirement_order_does_not_split_the_cache(self, manager):
        a = manager.verify(requirements=(("Width", 64), ("MaxDelay", 50)))
        b = manager.verify(requirements=(("MaxDelay", 50), ("Width", 64)))
        assert a is b

    def test_repeated_access_does_not_bump_generation(self, manager):
        manager.checkout()
        manager.verify()
        generation = manager.generation
        manager.checkout()
        manager.verify()
        assert manager.generation == generation


class TestUnifiedInvalidation:
    def test_one_mutation_invalidates_both_caches_in_one_bump(self, layer,
                                                              manager):
        """One library mutation drops the cached verify reports through
        a single epoch bump."""
        verify_before = manager.verify(requirements=(("Width", 64),))
        base_before = manager.verify()
        generation = manager.generation

        layer.libraries.library("lib-a").add(DesignObject(
            "h4", "Widget.hw", {"Tech": "t35", "Pipeline": 4, "Width": 128},
            {"area": 90.0, "latency_ns": 3.0, "MaxDelay": 3.0}))

        assert manager.verify(
            requirements=(("Width", 64),)) is not verify_before
        assert manager.verify() is not base_before
        # Both refreshed through exactly one generation bump.
        assert manager.generation == generation + 1

    def test_fresh_index_sees_the_mutation(self, layer, manager):
        manager.checkout()
        before = len(manager.layer.libraries.index().subtree_ids("Widget"))
        layer.libraries.library("lib-a").add(DesignObject(
            "h5", "Widget.hw", {"Tech": "t70", "Pipeline": 2, "Width": 16},
            {"area": 10.0, "latency_ns": 50.0, "MaxDelay": 50.0}))
        generation = manager.generation
        manager.checkout()
        assert manager.generation == generation + 1
        assert len(manager.layer.libraries.index().subtree_ids("Widget")) \
            == before + 1

    def test_checkout_reports_the_current_epoch(self, layer, manager):
        first = manager.checkout()
        assert manager.checkout() == first
        layer.libraries.library("lib-a").add(DesignObject(
            "h6", "Widget.hw", {"Tech": "t35", "Pipeline": 1, "Width": 8},
            {"area": 5.0, "latency_ns": 80.0, "MaxDelay": 80.0}))
        assert manager.checkout() != first

    def test_invalidation_metric_counts_bumps(self, layer):
        registry = MetricsRegistry()
        manager = SnapshotManager(layer, metrics=registry)
        manager.checkout()
        layer.libraries.library("lib-a").add(DesignObject(
            "h7", "Widget.hw", {"Tech": "t35", "Pipeline": 1, "Width": 8},
            {"area": 5.0, "latency_ns": 80.0, "MaxDelay": 80.0}))
        manager.checkout()
        counter = registry.counter("dsl_snapshot_invalidations_total",
                                   layer=layer.name)
        assert counter.value == 2.0  # initial checkout + the mutation

    def test_verify_hit_metric_counts_cache_hits(self, layer):
        registry = MetricsRegistry()
        manager = SnapshotManager(layer, metrics=registry)
        manager.verify()
        manager.verify()
        manager.verify()
        counter = registry.counter("dsl_verify_cache_hits_total",
                                   layer=layer.name)
        assert counter.value == 2.0
