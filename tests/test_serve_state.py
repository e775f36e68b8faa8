"""SessionManager: tokens, TTL eviction, closed-session semantics."""

import itertools
import sys
import threading

import pytest

from repro.core import ExplorationSession
from repro.core.obs.metrics import MetricsRegistry
from repro.serve import ServiceError, SessionManager

from conftest import build_widget_layer


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def layer():
    return build_widget_layer()


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def manager(clock):
    return SessionManager(ttl=100.0, clock=clock)


def open_session(manager, layer):
    return manager.open(lambda: ExplorationSession(layer, "Widget"),
                        layer.name, "Widget")


class TestLifecycle:
    def test_open_assigns_unique_tokens(self, manager, layer):
        tokens = {open_session(manager, layer).token for _ in range(16)}
        assert len(tokens) == 16
        assert len(manager) == 16

    def test_get_returns_the_same_served_session(self, manager, layer):
        served = open_session(manager, layer)
        assert manager.get(served.token) is served

    def test_get_unknown_token_is_a_404(self, manager):
        with pytest.raises(ServiceError) as err:
            manager.get("nope")
        assert err.value.status == 404
        assert err.value.code == "unknown-session"

    def test_close_removes_and_marks_closed(self, manager, layer):
        served = open_session(manager, layer)
        manager.close(served.token)
        assert served.closed
        assert len(manager) == 0
        with pytest.raises(ServiceError):
            manager.get(served.token)

    def test_run_rejects_closed_sessions_with_410(self, manager, layer):
        served = open_session(manager, layer)
        manager.close(served.token)
        with pytest.raises(ServiceError) as err:
            served.run(0.0, lambda session: session.report())
        assert err.value.status == 410

    def test_run_refreshes_last_used(self, manager, layer, clock):
        served = open_session(manager, layer)
        clock.advance(42.0)
        served.run(clock(), lambda session: None)
        assert served.last_used == 42.0

    def test_session_cap_is_a_503(self, clock, layer):
        manager = SessionManager(ttl=100.0, max_sessions=2, clock=clock)
        open_session(manager, layer)
        open_session(manager, layer)
        with pytest.raises(ServiceError) as err:
            open_session(manager, layer)
        assert err.value.status == 503


class TestTtlEviction:
    def test_idle_sessions_evict_on_access(self, manager, layer, clock):
        stale = open_session(manager, layer)
        clock.advance(101.0)
        fresh = open_session(manager, layer)
        assert stale.closed
        assert not fresh.closed
        assert len(manager) == 1

    def test_activity_defers_eviction(self, manager, layer, clock):
        served = open_session(manager, layer)
        for _ in range(5):
            clock.advance(60.0)
            served.run(clock(), lambda session: None)
        assert manager.get(served.token) is served

    def test_evict_idle_reports_victim_tokens(self, manager, layer, clock):
        a = open_session(manager, layer)
        clock.advance(50.0)
        b = open_session(manager, layer)
        clock.advance(60.0)  # a idle 110s, b idle 60s
        assert manager.evict_idle() == [a.token]
        assert manager.get(b.token) is b

    def test_close_all_drops_everything(self, manager, layer):
        served = [open_session(manager, layer) for _ in range(4)]
        assert manager.close_all() == 4
        assert len(manager) == 0
        assert all(s.closed for s in served)


class TestMetrics:
    def test_gauge_and_counters_track_the_population(self, clock, layer):
        registry = MetricsRegistry()
        manager = SessionManager(ttl=100.0, clock=clock, metrics=registry)
        first = manager.open(
            lambda: ExplorationSession(layer, "Widget"), "widgets", "Widget")
        manager.open(
            lambda: ExplorationSession(layer, "Widget"), "widgets", "Widget")
        assert registry.gauge("dsl_sessions_active").value == 2.0
        manager.close(first.token)
        assert registry.gauge("dsl_sessions_active").value == 1.0
        clock.advance(101.0)
        manager.evict_idle()
        assert registry.gauge("dsl_sessions_active").value == 0.0
        assert registry.counter("dsl_sessions_opened_total").value == 2.0
        assert registry.counter("dsl_sessions_evicted_total").value == 1.0


class TestConcurrency:
    def test_concurrent_open_and_close_keep_the_registry_consistent(
            self, layer):
        manager = SessionManager(ttl=1e9)
        errors = []
        barrier = threading.Barrier(8)

        def body(i):
            barrier.wait()
            try:
                for _ in range(25):
                    served = manager.open(
                        lambda: ExplorationSession(layer, "Widget"),
                        layer.name, "Widget")
                    assert manager.get(served.token) is served
                    manager.close(served.token)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(manager) == 0

    def test_sweeps_racing_opens_evict_each_session_once(self, layer):
        """Every ``open``/``get`` sweeps idle sessions before taking the
        registry lock.  The clock ticks on every read and the TTL is 4
        ticks; each thread closes the session it opened one or two
        opens earlier, so about half the sessions are evicted first,
        many by another thread's sweep.  Each session must still leave
        exactly once, by eviction or by close, and end closed."""
        ticks = itertools.count()
        registry = MetricsRegistry()
        manager = SessionManager(ttl=4.0, clock=lambda: float(next(ticks)),
                                 metrics=registry)
        opened, closed, errors = [], [], []
        barrier = threading.Barrier(8)

        def body(lag):
            held = []
            barrier.wait()
            try:
                for _ in range(40):
                    held.append(manager.open(
                        lambda: ExplorationSession(layer, "Widget"),
                        layer.name, "Widget"))
                    opened.append(held[-1])
                    if len(held) <= lag:
                        continue
                    served = held.pop(0)
                    try:
                        manager.get(served.token)
                        manager.close(served.token)
                    except ServiceError as exc:
                        assert exc.code == "unknown-session"
                    else:
                        closed.append(served)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=body, args=(1 + i % 2,),
                                        daemon=True)
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        manager.evict_idle(float("inf"))
        evicted = registry.counter("dsl_sessions_evicted_total").value
        assert len(opened) == 320
        assert closed and evicted > len(threads)
        assert evicted + len(closed) == len(opened)
        assert all(served.closed for served in opened)
        assert len(manager) == 0
        assert registry.gauge("dsl_sessions_active").value == 0.0
