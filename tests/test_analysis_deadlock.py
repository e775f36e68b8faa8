"""Deadlock-pass suite (DSA030–DSA032) over synthetic fixtures.

``tests/analysis_fixtures/deadlock_pkg/`` realizes the classic hazards
— an ABBA inversion split across two modules, lexical and call-graph
re-entry of a non-reentrant lock, blocking calls under a lock — and
``primitives_mod.py`` gives the lock-scope recognizer one scope per
``threading`` factory.  A barrier-driven runtime test demonstrates the
same ABBA hazard with acquisition timeouts, so the suite itself can
never deadlock.
"""

import os
import threading

import pytest

from repro.analysis import (
    ConcurrencyContract,
    analyze_paths,
    build_lock_graph,
    build_model,
    collect_files,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "analysis_fixtures")
PKG = os.path.join(FIXTURES, "deadlock_pkg")

LOCK_A = "deadlock_pkg.mod_a:LOCK_A"
LOCK_B = "deadlock_pkg.mod_b:LOCK_B"
LOCK_C = "deadlock_pkg.mod_b:LOCK_C"


def analyze_pkg(contract=None):
    return analyze_paths([PKG], root=FIXTURES,
                         contract=contract or ConcurrencyContract())


def pkg_model():
    return build_model(collect_files([PKG]), FIXTURES)


class TestLockGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_lock_graph(pkg_model(), ConcurrencyContract())

    def test_every_module_lock_is_a_node(self, graph):
        assert {n.lock for n in graph.nodes} == {LOCK_A, LOCK_B, LOCK_C}
        assert all(n.kind == "Lock" for n in graph.nodes)

    def test_cross_module_edges_carry_provenance(self, graph):
        ab = [e for e in graph.edges if e.src == LOCK_A and e.dst == LOCK_B]
        assert ab and ab[0].via == "deadlock_pkg.mod_b:grab_b_leaf"
        assert ab[0].symbol == "deadlock_pkg.mod_a:a_then_b"
        ba = [e for e in graph.edges if e.src == LOCK_B and e.dst == LOCK_A]
        assert ba and ba[0].via == "deadlock_pkg.mod_a:grab_a_leaf"

    def test_lexical_nesting_edge_has_no_via(self, graph):
        bc = [e for e in graph.edges if e.src == LOCK_B and e.dst == LOCK_C]
        assert bc and bc[0].via == ""
        assert bc[0].symbol == "deadlock_pkg.mod_b:b_then_c"

    def test_abba_cycle_detected(self, graph):
        assert graph.cycles() == [(LOCK_A, LOCK_B)]
        assert not graph.acyclic

    def test_rendering_names_the_cycle(self, graph):
        text = graph.render_text()
        assert "CYCLE:" in text
        assert "2 cycles" not in graph.summary()
        payload = graph.to_dict()
        assert payload["acyclic"] is False
        assert payload["cycles"] == [[LOCK_A, LOCK_B]]


class TestDeadlockFindings:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_pkg()

    def test_cycle_reported_once_with_both_locks(self, report):
        cycles = [f for f in report.by_code("DSA030")
                  if "cycle" in f.message]
        assert len(cycles) == 1
        assert LOCK_A in cycles[0].message and LOCK_B in cycles[0].message

    def test_reentry_sites(self, report):
        symbols = sorted(f.symbol for f in report.by_code("DSA031"))
        assert symbols == ["deadlock_pkg.mod_a:reenter_nested",
                           "deadlock_pkg.mod_a:reenter_via_call"]
        channels = {f.symbol: f.message for f in report.by_code("DSA031")}
        assert "nested with" in \
            channels["deadlock_pkg.mod_a:reenter_nested"]
        assert "call chain" in \
            channels["deadlock_pkg.mod_a:reenter_via_call"]

    def test_blocking_sites(self, report):
        active = [f for f in report.by_code("DSA032") if not f.suppressed]
        assert sorted(f.symbol for f in active) == \
            ["deadlock_pkg.mod_a:sleep_under_lock",
             "deadlock_pkg.mod_a:wait_under_lock"]

    def test_http_response_wait_under_lock(self, tmp_path):
        module = tmp_path / "http_mod.py"
        module.write_text("import threading\n\nLOCK = threading.Lock()\n\n\n"
                          "def fetch(conn):\n"
                          "    with LOCK:\n"
                          "        return conn.getresponse()\n")
        report = analyze_paths([str(module)], root=str(tmp_path),
                               contract=ConcurrencyContract())
        (finding,) = report.by_code("DSA032")
        assert finding.symbol == "http_mod:fetch"
        assert "blocking HTTP request" in finding.message

    def test_justified_blocking_stays_as_audit_trail(self, report):
        suppressed = [f for f in report.by_code("DSA032") if f.suppressed]
        assert [f.symbol for f in suppressed] == \
            ["deadlock_pkg.mod_b:sleep_quietly"]
        assert suppressed[0].justification

    def test_plain_holders_stay_silent(self, report):
        for symbol in ("deadlock_pkg.mod_a:grab_a_leaf",
                       "deadlock_pkg.mod_b:grab_b_leaf",
                       "deadlock_pkg.mod_b:b_then_c"):
            assert not any(f.symbol == symbol for f in report.active)


class TestContractKnobs:
    def test_declared_order_flags_backward_edge_without_a_cycle(self):
        contract = ConcurrencyContract(lock_order=(LOCK_C, LOCK_B))
        report = analyze_pkg(contract)
        against = [f for f in report.by_code("DSA030")
                   if "declared lock order" in f.message]
        assert [f.symbol for f in against] == ["deadlock_pkg.mod_b:b_then_c"]

    def test_contract_reentrancy_assertion_silences_dsa031(self):
        contract = ConcurrencyContract(reentrant_locks=frozenset({LOCK_A}))
        report = analyze_pkg(contract)
        assert report.by_code("DSA031") == []
        # the ABBA cycle is about ordering, not re-entrancy: still there
        assert any("cycle" in f.message for f in report.by_code("DSA030"))

    def test_blocking_allowed_exempts_the_named_function(self):
        contract = ConcurrencyContract(blocking_allowed={
            "deadlock_pkg.mod_a:wait_under_lock":
                "the flight event is set by a bounded leader"})
        report = analyze_pkg(contract)
        active = [f.symbol for f in report.by_code("DSA032")
                  if not f.suppressed]
        assert active == ["deadlock_pkg.mod_a:sleep_under_lock"]


class TestPrimitiveRecognition:
    """Satellite: one recognizer check per threading primitive."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model(
            [os.path.join(FIXTURES, "primitives_mod.py")], FIXTURES)

    def scopes(self, model, qualname):
        return model.functions[qualname].lock_scopes

    def test_lock(self, model):
        (scope,) = self.scopes(model, "primitives_mod:Primitives.use_lock")
        assert (scope.lock, scope.kind) == ("Primitives._lock", "Lock")

    def test_rlock(self, model):
        scopes = self.scopes(model,
                             "primitives_mod:Primitives.use_rlock_nested")
        assert [s.kind for s in scopes] == ["RLock", "RLock"]
        assert all(s.lock == "Primitives._rlock" for s in scopes)

    def test_condition(self, model):
        (scope,) = self.scopes(model, "primitives_mod:Primitives.wait_ready")
        assert (scope.lock, scope.kind) == ("Primitives._cond", "Condition")

    def test_semaphore(self, model):
        (scope,) = self.scopes(model,
                               "primitives_mod:Primitives.use_semaphore")
        assert (scope.lock, scope.kind) == ("Primitives._sem", "Semaphore")

    def test_bounded_semaphore(self, model):
        scopes = self.scopes(model,
                             "primitives_mod:Primitives.reenter_bounded")
        assert [s.kind for s in scopes] == ["BoundedSemaphore"] * 2

    def test_module_level_semaphore(self, model):
        (scope,) = self.scopes(model, "primitives_mod:use_module_semaphore")
        assert (scope.lock, scope.kind) == ("primitives_mod:GATE",
                                            "Semaphore")


class TestPrimitiveSemantics:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_paths(
            [os.path.join(FIXTURES, "primitives_mod.py")], root=FIXTURES,
            contract=ConcurrencyContract())

    def test_only_nonreentrant_kinds_earn_dsa031(self, report):
        assert sorted(f.symbol for f in report.by_code("DSA031")) == \
            ["primitives_mod:Primitives.reenter_bounded",
             "primitives_mod:Primitives.reenter_through_self_call"]

    def test_own_condition_wait_is_exempt(self, report):
        assert [f.symbol for f in report.by_code("DSA032")] == \
            ["primitives_mod:Primitives.wait_foreign"]


class TestRuntimeAbbaHazard:
    """The fixture's hazard, demonstrated live — with timeouts, so the
    regression test can never hang the suite."""

    def test_barrier_driven_abba_times_out(self):
        lock_a, lock_b = threading.Lock(), threading.Lock()
        barrier = threading.Barrier(2)
        outcomes = []

        def worker(name, first, second):
            with first:
                barrier.wait(timeout=10)
                acquired = second.acquire(timeout=0.5)
                if acquired:
                    second.release()
                outcomes.append((name, acquired))
                # hold the first lock until BOTH attempts resolved, so
                # neither thread's timeout can hand its lock to the other
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=worker, args=("ab", lock_a, lock_b)),
                   threading.Thread(target=worker, args=("ba", lock_b, lock_a))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        # the barrier guarantees both threads hold their first lock when
        # they reach for the second: both acquisitions must time out
        assert sorted(outcomes) == [("ab", False), ("ba", False)]

    def test_shared_declared_order_avoids_the_hazard(self):
        lock_a, lock_b = threading.Lock(), threading.Lock()
        done = []

        def worker(name):
            with lock_a:
                with lock_b:
                    done.append(name)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in ("one", "two")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(done) == ["one", "two"]
