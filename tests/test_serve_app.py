"""DesignSpaceService verbs, in-process: payloads, errors, determinism.

The digest-equality oracle lives here in miniature: each served verb is
recomputed with direct library calls and compared through
``canonical_json`` byte for byte (the load benchmark repeats this over
HTTP against the 50k-core layer).
"""

import pytest

import json
import math

from repro.core import CoreIndex, CoreQuery, DesignObject, ExplorationSession
from repro.core.explore import ExplorationProblem, explore
from repro.core.pruning import merit_ranges, names_digest
from repro.core.serialize import core_to_dict
from repro.serve import DesignSpaceService, canonical_json

from conftest import build_widget_layer


@pytest.fixture()
def layer():
    return build_widget_layer()


@pytest.fixture()
def service(layer):
    with DesignSpaceService(layers={"widgets": layer}) as svc:
        yield svc


def ok(service, verb, **params):
    status, payload = service.handle(verb, params)
    assert status == 200, payload
    return payload


def err(service, verb, **params):
    status, payload = service.handle(verb, params)
    assert status >= 400, payload
    return status, payload["error"]


class TestStatelessVerbs:
    def test_query_matches_direct_library_call(self, service, layer):
        served = ok(service, "query", layer="widgets", under="Widget.hw",
                    order_by="area", limit=2)
        cores = (CoreQuery(layer).under("Widget.hw")
                 .order_by("area").limit(2).all())
        direct = {
            "layer": layer.name,
            "count": len(cores),
            "digest": names_digest([c.name for c in cores]),
            "cores": [core_to_dict(c) for c in cores],
        }
        assert canonical_json(served) == canonical_json(direct)

    def test_query_where_and_merit_filters(self, service):
        served = ok(service, "query", layer="widgets",
                    where={"Tech": "t35"}, max_merit={"area": 120.0})
        assert [c["name"] for c in served["cores"]] == ["h1"]

    def test_lint_matches_direct_library_call(self, service, layer):
        served = ok(service, "lint", layer="widgets")
        direct = {"layer": layer.name, "report": layer.lint().to_dict()}
        assert canonical_json(served) == canonical_json(direct)

    def test_verify_matches_direct_library_call(self, service, layer):
        served = ok(service, "verify", layer="widgets",
                    require={"Width": 64})
        direct = {"layer": layer.name,
                  "report": layer.verify(
                      requirements=(("Width", 64),)).to_dict()}
        assert canonical_json(served) == canonical_json(direct)

    def test_verify_is_served_from_the_manager_cache(self, service):
        ok(service, "verify", layer="widgets")
        ok(service, "verify", layer="widgets")
        hits = service.metrics.counter("dsl_verify_cache_hits_total",
                                       layer="widgets")
        assert hits.value == 1.0

    def test_explore_matches_direct_library_call(self, service, layer):
        served = ok(service, "explore", layer="widgets", start="Widget",
                    strategy="exhaustive", require={"Width": 64})
        problem = ExplorationProblem(
            start="Widget", metrics=("area", "latency_ns"),
            requirements=(("Width", 64),), layer=layer)
        direct = explore(problem, strategy="exhaustive").to_dict()
        direct.pop("pool", None)
        assert canonical_json(served) == canonical_json(
            {"layer": layer.name, "result": direct})

    def test_explore_payload_never_carries_pool_accounting(self, layer):
        with DesignSpaceService(layers={"widgets": layer}) as svc:
            served = ok(svc, "explore", layer="widgets", start="Widget")
            assert "pool" not in served["result"]
            assert served["result"]["jobs"] == 1
            # Served explores run serially: a jobs option is refused,
            # not honoured.
            status, payload = svc.handle(
                "explore", {"layer": "widgets", "start": "Widget",
                            "options": {"jobs": 2}})
            assert status == 400
            assert payload["error"]["code"] == "ExplorationError"

    def test_parallel_explore_digest_equals_serial(self, layer):
        with DesignSpaceService(layers={"w": layer}) as svc:
            served = ok(svc, "explore", layer="w", start="Widget")
        problem = ExplorationProblem(start="Widget", layer=layer,
                                     layer_factory=build_widget_layer)
        parallel = explore(problem, jobs=4).to_dict()
        assert served["result"]["digest"] == parallel["digest"]
        assert served["result"]["frontier"] == parallel["frontier"]


class TestSessionVerbs:
    def test_walk_matches_a_direct_session(self, service, layer):
        opened = ok(service, "session/open", layer="widgets",
                    start="Widget")
        token = opened["token"]
        served = ok(service, "session/require", token=token,
                    name="Width", value=64)["report"]
        served_decide = ok(service, "session/decide", token=token,
                           issue="Style", option="hw")

        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 64)
        report = session.prune_report()
        ranges = merit_ranges(report.survivors, session.merit_metrics)
        direct = {"survivors": len(report.survivors),
                  "digest": report.digest(),
                  "ranges": {k: [lo, hi] for k, (lo, hi) in ranges.items()}}
        assert canonical_json(served) == canonical_json(direct)

        outcome = session.decide("Style", "hw")
        assert served_decide["decided"]["survivors_after"] == \
            outcome.survivors_after
        assert served_decide["report"]["digest"] == \
            session.prune_report().digest()

    def test_served_ranges_equal_the_naive_scan(self, service, layer):
        # The service reads ranges off the index; the naive scan over the
        # materialized survivors is the oracle, at every step of a walk.
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        session = ExplorationSession(layer, "Widget")
        steps = [("session/report", {}, None),
                 ("session/require", {"name": "Width", "value": 64},
                  lambda: session.set_requirement("Width", 64)),
                 ("session/decide", {"issue": "Style", "option": "hw"},
                  lambda: session.decide("Style", "hw")),
                 ("session/decide", {"issue": "Tech", "option": "t35"},
                  lambda: session.decide("Tech", "t35"))]
        for verb, params, direct in steps:
            payload = ok(service, verb, token=token, **params)
            served = payload.get("report", payload)
            if direct is not None:
                direct()
            report = session.prune_report()
            naive = merit_ranges(report.survivors, session.merit_metrics)
            assert served["ranges"] == {k: [lo, hi]
                                        for k, (lo, hi) in naive.items()}
            assert session.fom_ranges() == naive

    def test_undo_returns_to_the_previous_state(self, service):
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        before = ok(service, "session/report", token=token)
        ok(service, "session/decide", token=token, issue="Style",
           option="sw")
        after_undo = ok(service, "session/undo", token=token)
        assert after_undo["report"]["digest"] == before["digest"]
        assert after_undo["state"]["decisions"] == {}

    def test_goto_restores_named_checkpoints(self, service):
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        ok(service, "session/decide", token=token, issue="Style",
           option="hw")
        ok(service, "session/checkpoint", token=token, tag="at-hw")
        ok(service, "session/decide", token=token, issue="Tech",
           option="t35")
        restored = ok(service, "session/goto", token=token, tag="at-hw")
        assert restored["state"]["decisions"] == {"Style": "hw"}
        origin = ok(service, "session/goto", token=token, tag="origin")
        assert origin["state"]["decisions"] == {}

    def test_candidates_pages_through_names(self, service):
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        page = ok(service, "session/candidates", token=token, limit=2)
        assert page["survivors"] == 5
        assert len(page["names"]) == 2

    @pytest.mark.parametrize("limit", [1, 2, 3, 100])
    def test_candidates_page_equals_the_direct_session(self, service, layer,
                                                       limit):
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        ok(service, "session/require", token=token, name="Width", value=64)
        page = ok(service, "session/candidates", token=token, limit=limit)
        session = ExplorationSession(layer, "Widget")
        session.set_requirement("Width", 64)
        names = [core.name for core in session.candidates()]
        assert page["names"] == names[:limit]
        assert page["survivors"] == len(names) == 4
        assert page["digest"] == names_digest(names)

    def test_session_verbs_never_materialize_survivors(self, service,
                                                       monkeypatch):
        calls = []
        materialize = CoreIndex.materialize
        monkeypatch.setattr(
            CoreIndex, "materialize",
            lambda index, ids: calls.append(1) or materialize(index, ids))
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        ok(service, "session/require", token=token, name="Width", value=64)
        ok(service, "session/decide", token=token, issue="Style",
           option="hw")
        ok(service, "session/options", token=token, issue="Tech")
        ok(service, "session/decide", token=token, issue="Tech",
           option="t35")
        ok(service, "session/report", token=token)
        ok(service, "session/candidates", token=token, limit=2)
        assert calls == []

    def test_options_annotate_counts_and_ranges(self, service, layer):
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        served = ok(service, "session/options", token=token, issue="Style")
        session = ExplorationSession(layer, "Widget")
        direct = [(info.option, info.candidate_count)
                  for info in session.available_options("Style")]
        assert [(o["option"], o["candidates"])
                for o in served["options"]] == direct

    def test_identical_session_states_share_one_prune(self, service):
        tokens = [ok(service, "session/open", layer="widgets",
                     start="Widget")["token"] for _ in range(4)]
        for token in tokens:
            ok(service, "session/report", token=token)
        leads = service.metrics.counter("dsl_prune_batch_leads_total")
        hits = service.metrics.counter("dsl_prune_batch_hits_total")
        # One compute when the first session opened; everyone else hits.
        assert leads.value == 1.0
        assert hits.value >= 7.0

    def test_close_then_use_is_a_404(self, service):
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        ok(service, "session/close", token=token)
        status, error = err(service, "session/report", token=token)
        assert status == 404
        assert error["code"] == "unknown-session"


class TestStrictJson:
    """Bodies are RFC 8259 JSON: a non-finite merit reads as ``null``."""

    @pytest.fixture()
    def odd_layer(self):
        layer = build_widget_layer()
        layer.libraries.libraries[0].add_all([
            DesignObject("h8", "Widget.hw",
                         {"Tech": "t70", "Pipeline": 2, "Width": 64},
                         {"area": math.nan, "latency_ns": 3.0,
                          "MaxDelay": 3.0}),
            DesignObject("h9", "Widget.hw",
                         {"Tech": "t70", "Pipeline": 4, "Width": 64},
                         {"area": 50.0, "latency_ns": math.inf,
                          "MaxDelay": 3.0})])
        return layer

    @staticmethod
    def strict(body):
        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")
        return json.loads(body, parse_constant=refuse)

    def test_session_bodies_parse_strictly(self, odd_layer):
        with DesignSpaceService(layers={"widgets": odd_layer}) as svc:
            def call(verb, **params):
                status, body = svc.handle_json(
                    verb, json.dumps(params).encode())
                assert status == 200, body
                return self.strict(body)

            token = call("session/open", layer="widgets",
                         start="Widget")["token"]
            required = call("session/require", token=token, name="Width",
                            value=64)
            assert required["report"]["ranges"]["area"] == [None, None]
            call("session/decide", token=token, issue="Style", option="hw")
            options = call("session/options", token=token, issue="Tech")
            ranges = {o["option"]: o["ranges"] for o in options["options"]}
            assert ranges["t70"] == {"area": [None, None],
                                     "latency_ns": [3.0, None]}
            assert ranges["t35"] == {"area": [100.0, 140.0],
                                     "latency_ns": [6.0, 10.0]}
            decided = call("session/decide", token=token, issue="Tech",
                           option="t70")
            assert decided["report"]["ranges"]["latency_ns"] == [3.0, None]
            report = call("session/report", token=token)
            assert report["survivors"] == 2

    def test_finite_payloads_encode_as_before(self):
        payload = {"b": [1.5, {"c": (2, "x")}], "a": None}
        assert canonical_json(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode()
        assert canonical_json({"x": [math.inf, -math.inf, math.nan, 1.0]}) \
            == b'{"x":[null,null,null,1.0]}'


class TestErrors:
    def test_unknown_verb_is_a_404(self, service):
        status, error = err(service, "frobnicate")
        assert status == 404
        assert error["code"] == "unknown-verb"

    def test_unknown_layer_is_a_404(self, service):
        status, error = err(service, "query", layer="nope")
        assert status == 404
        assert error["code"] == "unknown-layer"

    def test_library_errors_map_to_400(self, service):
        status, error = err(service, "session/open", layer="widgets",
                            start="NoSuchCdo")
        assert status == 400
        assert error["code"] in ("HierarchyError", "PathError")

    def test_missing_required_parameter_is_a_400(self, service):
        token = ok(service, "session/open", layer="widgets",
                   start="Widget")["token"]
        status, error = err(service, "session/decide", token=token)
        assert status == 400
        assert "issue" in error["message"]

    def test_start_defaults_to_the_sole_root(self, service):
        opened = ok(service, "session/open", layer="widgets")
        assert opened["start"] == "Widget"
        defaulted = ok(service, "explore", layer="widgets")
        explicit = ok(service, "explore", layer="widgets", start="Widget")
        assert defaulted["result"]["digest"] == explicit["result"]["digest"]

    def test_bad_json_body_is_a_400(self, service):
        status, body = service.handle_json("query", b"{not json")
        assert status == 400
        assert b"bad-json" in body

    def test_every_request_lands_in_the_route_metrics(self, service):
        ok(service, "query", layer="widgets")
        err(service, "frobnicate")
        total_ok = service.metrics.counter("dsl_requests_total",
                                           route="query", status="200")
        total_404 = service.metrics.counter("dsl_requests_total",
                                            route="unknown", status="404")
        assert total_ok.value == 1.0
        assert total_404.value == 1.0
        histogram = service.metrics.histogram("dsl_request_seconds",
                                              route="query")
        assert histogram.count == 1


class TestLifecycle:
    def test_closed_service_rejects_new_work(self, layer):
        svc = DesignSpaceService(layers={"widgets": layer})
        ok(svc, "query", layer="widgets")
        svc.close()
        status, error = err(svc, "query", layer="widgets")
        assert status == 503
        assert error["code"] == "shutting-down"

    def test_close_is_idempotent_and_drops_sessions(self, layer):
        svc = DesignSpaceService(layers={"widgets": layer})
        ok(svc, "session/open", layer="widgets", start="Widget")
        assert len(svc.sessions) == 1
        svc.close()
        svc.close()
        assert len(svc.sessions) == 0

    def test_default_layer_is_used_when_layer_is_omitted(self, layer):
        with DesignSpaceService(layers={"widgets": layer}) as svc:
            payload = ok(svc, "query")
            assert payload["layer"] == "widgets"
