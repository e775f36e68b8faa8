"""The transport-independent service core: JSON verbs in, JSON out.

:class:`DesignSpaceService` is the whole server minus sockets: a routing
table from verb names (``query``, ``lint``, ``verify``, ``explore``,
``session/*``) to handlers that speak plain dicts.  The HTTP layer
(:mod:`repro.serve.http`) is a thin shell around :meth:`handle`; tests
and the stress suite drive the service in-process through the same entry
point, so everything except socket plumbing is exercised without a
port.

Determinism contract: every payload is rendered with
:func:`canonical_json` (sorted keys, tight separators) and contains no
wall-clock or scheduling data — the load benchmark asserts the served
bytes equal a direct in-process library call byte for byte.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core import CoreQuery, ExplorationSession
from repro.core.layer import DesignSpaceLayer
from repro.core.obs.metrics import MetricsRegistry
from repro.core.pruning import MissingPolicy, names_digest
from repro.core.serialize import core_to_dict
from repro.errors import ExplorationError, ReproError
from repro.serve.batching import PruneBatcher
from repro.serve.errors import ServiceError
from repro.serve.state import (
    DEFAULT_MAX_SESSIONS,
    DEFAULT_TTL,
    ServedSession,
    SessionManager,
)

Params = Mapping[str, object]
Payload = Dict[str, object]

#: Latency histogram + request counter names (scraped via ``/metrics``).
REQUEST_SECONDS = "dsl_request_seconds"
REQUESTS_TOTAL = "dsl_requests_total"


_JSON_OPTIONS = dict(sort_keys=True, separators=(",", ":"), default=repr,
                     allow_nan=False)


def canonical_json(payload: object) -> bytes:
    """The service's one wire encoding: RFC 8259 JSON with sorted keys
    and no whitespace.

    ``default=repr`` matches the CLI's JSON emitter, so exotic option
    values degrade identically on both surfaces.  JSON has no NaN or
    infinity, so a non-finite float (a NaN merit's range, say) is sent
    as ``null``; only a payload holding one pays for the second pass.
    """
    try:
        text = json.dumps(payload, **_JSON_OPTIONS)
    except ValueError:
        text = json.dumps(_finite(payload), **_JSON_OPTIONS)
    return text.encode("utf-8")


def _finite(value: object) -> object:
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def default_layer_factories(eol: int = 768) -> Dict[
        str, Callable[[], DesignSpaceLayer]]:
    """The bundled layers, built lazily on first request."""

    def crypto() -> DesignSpaceLayer:
        from repro.domains.crypto import build_crypto_layer
        return build_crypto_layer(eol=eol)

    def idct() -> DesignSpaceLayer:
        from repro.domains.idct import build_idct_layer
        return build_idct_layer()

    return {"crypto": crypto, "idct": idct}


def _as_pairs(value: object, what: str) -> Tuple[Tuple[str, object], ...]:
    """Normalize ``{name: value}`` / ``[[name, value], ...]`` params.

    Mappings are sorted by name so two clients sending the same logical
    bindings produce the same cache keys and payload bytes.
    """
    if value is None:
        return ()
    if isinstance(value, Mapping):
        return tuple(sorted(value.items(), key=lambda kv: kv[0]))
    if isinstance(value, (list, tuple)):
        out: List[Tuple[str, object]] = []
        for item in value:
            if (not isinstance(item, (list, tuple)) or len(item) != 2
                    or not isinstance(item[0], str)):
                raise ServiceError(
                    f"{what} entries must be [name, value] pairs")
            out.append((item[0], item[1]))
        return tuple(out)
    raise ServiceError(f"{what} must be an object or a list of pairs")


def _get_str(params: Params, key: str,
             default: Optional[str] = None) -> Optional[str]:
    value = params.get(key, default)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ServiceError(f"{key} must be a string")
    return value


def _need_str(params: Params, key: str) -> str:
    value = _get_str(params, key)
    if value is None:
        raise ServiceError(f"missing required parameter {key!r}")
    return value


def _get_int(params: Params, key: str, default: int,
             minimum: int = 0) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{key} must be an integer")
    if value < minimum:
        raise ServiceError(f"{key} must be >= {minimum}")
    return value


def _policy(params: Params) -> MissingPolicy:
    name = _get_str(params, "policy", "exclude") or "exclude"
    try:
        return MissingPolicy[name.upper()]
    except KeyError:
        raise ServiceError(
            f"unknown missing policy {name!r}; known: exclude, include")


class DesignSpaceService:
    """Every verb of the server, with no transport attached.

    ``layers`` maps layer names to either built
    :class:`~repro.core.layer.DesignSpaceLayer` instances or zero-arg
    factories (the bundled ``crypto``/``idct`` factories by default),
    each built on first request.  Handlers read the live layer and its
    epoch directly; sessions, batching and metrics are service-wide.
    Explore requests run serially in the handler thread.
    """

    def __init__(self, layers: Optional[Mapping[str, object]] = None,
                 eol: int = 768,
                 default_layer: str = "crypto",
                 session_ttl: float = DEFAULT_TTL,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._factories: Dict[str, object] = dict(
            layers if layers is not None else default_layer_factories(eol))
        if not self._factories:
            raise ServiceError("service needs at least one layer")
        if default_layer not in self._factories:
            default_layer = sorted(self._factories)[0]
        self.default_layer = default_layer
        self._layers: Dict[str, DesignSpaceLayer] = {}
        self.sessions = SessionManager(ttl=session_ttl,
                                       max_sessions=max_sessions,
                                       clock=clock, metrics=self.metrics)
        self.batcher = PruneBatcher(metrics=self.metrics)
        self._closed = False
        self._routes: Dict[str, Callable[[Params], Payload]] = {
            "query": self._handle_query,
            "lint": self._handle_lint,
            "verify": self._handle_verify,
            "explore": self._handle_explore,
            "session/open": self._handle_session_open,
            "session/state": self._handle_session_state,
            "session/report": self._handle_session_report,
            "session/candidates": self._handle_session_candidates,
            "session/options": self._handle_session_options,
            "session/require": self._handle_session_require,
            "session/decide": self._handle_session_decide,
            "session/undo": self._handle_session_undo,
            "session/checkpoint": self._handle_session_checkpoint,
            "session/goto": self._handle_session_goto,
            "session/close": self._handle_session_close,
        }

    # ------------------------------------------------------------------
    # shared infrastructure
    # ------------------------------------------------------------------
    @property
    def verbs(self) -> List[str]:
        return sorted(self._routes)

    def _layer_key(self, params: Params) -> str:
        """The service key a request names, or the default layer's."""
        key = _get_str(params, "layer")
        return self.default_layer if key is None else key

    def layer(self, key: str) -> DesignSpaceLayer:
        """The layer served under ``key``, building it on first use."""
        with self._lock:
            if self._closed:
                raise ServiceError("service is shutting down",
                                   status=503, code="shutting-down")
            layer = self._layers.get(key)
            if layer is not None:
                return layer
            source = self._factories.get(key)
            if source is None:
                raise ServiceError(
                    f"unknown layer {key!r}; served: "
                    f"{', '.join(sorted(self._factories))}",
                    status=404, code="unknown-layer")
            layer = source() if callable(source) else source
            self._layers[key] = layer
            self.metrics.gauge(
                "dsl_layers_loaded", "Layers built and served").set(
                    len(self._layers))
            return layer

    def close(self) -> None:
        """Release owned resources: sessions, batch cache."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.sessions.close_all()
        self.batcher.invalidate()

    def __enter__(self) -> "DesignSpaceService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, verb: str, params: Params) -> Tuple[int, Payload]:
        """Dispatch one request; never raises for client-side errors.

        Returns ``(http_status, payload)``.  Every call lands in the
        per-route latency histogram and the route+status counter that
        ``/metrics`` exposes.
        """
        # dsa: allow[DSA040] -- latency metrics only; handlers build payloads
        started = time.perf_counter()
        route = verb if verb in self._routes else "unknown"
        try:
            handler = self._routes.get(verb)
            if handler is None:
                raise ServiceError(f"unknown verb {verb!r}",
                                   status=404, code="unknown-verb")
            if not isinstance(params, Mapping):
                raise ServiceError("request body must be a JSON object")
            status, payload = 200, handler(params)
        except ServiceError as exc:
            status = exc.status
            payload = {"error": {"code": exc.code, "message": str(exc)}}
        except ReproError as exc:
            status = 400
            payload = {"error": {"code": type(exc).__name__,
                                 "message": str(exc)}}
        # dsa: allow[DSA040] -- latency lands in metrics, not response bytes
        self.record_request(route, status, time.perf_counter() - started)
        return status, payload

    def record_request(self, route: str, status: int,
                       elapsed: float) -> None:
        """Count one request, API verb or plain ``GET`` route, in the
        per-route latency histogram and the route+status counter that
        ``/metrics`` exposes."""
        self.metrics.histogram(
            REQUEST_SECONDS, "Request latency by route",
            route=route).observe(elapsed)
        self.metrics.counter(
            REQUESTS_TOTAL, "Requests by route and status",
            route=route, status=str(status)).inc()

    def handle_json(self, verb: str, body: bytes) -> Tuple[int, bytes]:
        """The byte-level entry the HTTP layer uses: JSON in, JSON out."""
        try:
            params = json.loads(body) if body else {}
        except ValueError as exc:
            status, payload = 400, {"error": {
                "code": "bad-json", "message": f"invalid JSON body: {exc}"}}
            return status, canonical_json(payload)
        if not isinstance(params, dict):
            params = {"value": params}
        status, payload = self.handle(verb, params)
        return status, canonical_json(payload)

    # ------------------------------------------------------------------
    # stateless verbs
    # ------------------------------------------------------------------
    def _handle_query(self, params: Params) -> Payload:
        layer = self.layer(self._layer_key(params))
        query = CoreQuery(layer)
        under = _get_str(params, "under")
        if under:
            query = query.under(under)
        where = params.get("where")
        for name, value in _as_pairs(where, "where"):
            query = query.where(**{name: value})
        max_merit = params.get("max_merit")
        for name, bound in _as_pairs(max_merit, "max_merit"):
            if not isinstance(bound, (int, float)) or isinstance(bound, bool):
                raise ServiceError("max_merit bounds must be numbers")
            query = query.merit_at_most(name, float(bound))
        order_by = _get_str(params, "order_by")
        if order_by:
            query = query.order_by(order_by,
                                   reverse=bool(params.get("reverse")))
        limit = params.get("limit")
        if limit is not None:
            query = query.limit(_get_int(params, "limit", 0, minimum=1))
        cores = query.all()
        return {
            "layer": layer.name,
            "count": len(cores),
            "digest": names_digest([core.name for core in cores]),
            "cores": [core_to_dict(core) for core in cores],
        }

    def _handle_lint(self, params: Params) -> Payload:
        from repro.core.lint import LintConfig
        layer = self.layer(self._layer_key(params))
        select = params.get("select")
        disable = params.get("disable")
        config = None
        if select is not None or disable is not None:
            config = LintConfig(
                select=tuple(select) if select else None,
                disable=tuple(disable) if disable else ())
        report = layer.lint(config=config)
        return {"layer": layer.name, "report": report.to_dict()}

    def _handle_verify(self, params: Params) -> Payload:
        layer = self.layer(self._layer_key(params))
        requirements = _as_pairs(params.get("require"), "require")
        start = _get_str(params, "start")
        report = layer.verify(requirements=requirements, start=start)
        return {"layer": layer.name, "report": report.to_dict()}

    @staticmethod
    def _start_name(layer: DesignSpaceLayer, params: Params) -> str:
        """``start``, defaulting to the layer's sole root."""
        start = _get_str(params, "start")
        if start:
            return start
        roots = layer.roots
        if len(roots) == 1:
            return roots[0].name
        raise ServiceError(
            "missing required parameter 'start' (layer "
            f"{layer.name!r} has {len(roots)} roots)")

    def _handle_explore(self, params: Params) -> Payload:
        from repro.core.explore import ExplorationEngine, ExplorationProblem
        layer = self.layer(self._layer_key(params))
        start = self._start_name(layer, params)
        strategy = _get_str(params, "strategy", "exhaustive") or "exhaustive"
        metrics = params.get("metrics") or ("area", "latency_ns")
        if (not isinstance(metrics, (list, tuple))
                or not all(isinstance(m, str) for m in metrics)):
            raise ServiceError("metrics must be a list of merit names")
        issues = params.get("issues")
        if issues is not None and (
                not isinstance(issues, (list, tuple))
                or not all(isinstance(i, str) for i in issues)):
            raise ServiceError("issues must be a list of issue names")
        options = params.get("options") or {}
        if not isinstance(options, Mapping):
            raise ServiceError("options must be an object")
        if options:
            raise ExplorationError(
                f"exploration strategies take no options, got "
                f"{sorted(options)}")
        problem = ExplorationProblem(
            start=start, metrics=tuple(metrics),
            requirements=_as_pairs(params.get("require"), "require"),
            decisions=_as_pairs(params.get("decisions"), "decisions"),
            issues=tuple(issues) if issues is not None else None,
            missing_policy=_policy(params),
            layer=layer)
        engine = ExplorationEngine(problem, strategy=strategy)
        return {"layer": layer.name,
                "result": engine.run().to_dict()}

    # ------------------------------------------------------------------
    # session verbs
    # ------------------------------------------------------------------
    def _served(self, params: Params) -> ServedSession:
        return self.sessions.get(_need_str(params, "token"))

    def _state_payload(self, session: ExplorationSession) -> Payload:
        return {
            "cdo": session.current_cdo.qualified_name,
            "decisions": dict(session.decisions),
            "requirements": dict(session.requirement_values),
            "derived": dict(session.derived_values),
            "stale": sorted(session.stale_properties),
            "log_length": len(session.log),
            "checkpoints": sorted(session.checkpoints()),
        }

    @staticmethod
    def _prune_key(session: ExplorationSession) -> tuple:
        """Batch key: everything the prune outcome depends on.

        Full decision/requirement dicts (not the position-filtered view)
        — equality on the superset implies equality on the filtered set,
        and the public accessors keep the batcher out of the session's
        internals.  ``repr`` keeps arbitrary option values hashable.
        The layer's epoch moves with every mutation, so a mutated layer
        never reads a result computed before the mutation.
        """
        layer = session.layer
        return (
            "prune", layer.name, layer.epoch,
            session.current_cdo.qualified_name,
            session.missing_policy.name, session.merit_metrics,
            tuple(sorted((k, repr(v))
                         for k, v in session.decisions.items())),
            tuple(sorted((k, repr(v))
                         for k, v in session.requirement_values.items())),
        )

    def _report_payload(self, session: ExplorationSession) -> Payload:
        """The batched prune outcome: survivor count, digest and ranges.

        The batched dict is shared verbatim across sessions at the same
        point of the space, so it holds only plain data derived from the
        survivor bitmask; each response gets its own shallow copy.
        """

        def compute() -> Payload:
            report = session.prune_report()
            ranges = report.index.merit_ranges_for(report.survivor_ids,
                                                   session.merit_metrics)
            return {
                "survivors": len(report.survivor_ids),
                "digest": report.digest(),
                "ranges": {name: [low, high]
                           for name, (low, high) in ranges.items()},
            }

        return dict(self.batcher.evaluate(self._prune_key(session), compute))

    def _handle_session_open(self, params: Params) -> Payload:
        key = self._layer_key(params)
        layer = self.layer(key)
        start = self._start_name(layer, params)
        metrics = params.get("metrics") or ("area", "latency_ns")
        if (not isinstance(metrics, (list, tuple))
                or not all(isinstance(m, str) for m in metrics)):
            raise ServiceError("metrics must be a list of merit names")
        policy = _policy(params)

        def factory() -> ExplorationSession:
            session = ExplorationSession(layer, start,
                                         merit_metrics=tuple(metrics),
                                         missing_policy=policy)
            session.checkpoint("origin")
            return session

        served = self.sessions.open(factory, key, start)
        report = served.run(self.sessions.now(), self._report_payload)
        return {"token": served.token, "layer": layer.name,
                "start": start, "report": report}

    def _session_view(self, params: Params,
                      fn: Callable[[ExplorationSession], Payload]) -> Payload:
        served = self._served(params)
        payload = served.run(self.sessions.now(), fn)
        payload.setdefault("token", served.token)
        return payload

    def _handle_session_state(self, params: Params) -> Payload:
        return self._session_view(params, self._state_payload)

    def _handle_session_report(self, params: Params) -> Payload:
        return self._session_view(params, self._report_payload)

    def _handle_session_candidates(self, params: Params) -> Payload:
        limit = _get_int(params, "limit", 100, minimum=1)

        def view(session: ExplorationSession) -> Payload:
            report = session.prune_report()
            return {"survivors": len(report.survivor_ids),
                    "digest": report.digest(),
                    "names": report.index.first_names(
                        report.survivor_ids, limit)}

        return self._session_view(params, view)

    def _handle_session_options(self, params: Params) -> Payload:
        issue = _need_str(params, "issue")
        limit = _get_int(params, "limit", 32, minimum=1)

        def view(session: ExplorationSession) -> Payload:
            infos = session.available_options(issue, limit=limit)
            return {"issue": issue, "options": [
                {"option": info.option,
                 "eliminated": info.eliminated,
                 "reason": info.elimination_reason,
                 "candidates": info.candidate_count,
                 "ranges": {name: [low, high]
                            for name, (low, high) in info.ranges.items()}}
                for info in infos]}

        return self._session_view(params, view)

    def _handle_session_require(self, params: Params) -> Payload:
        name = _need_str(params, "name")
        if "value" not in params:
            raise ServiceError("missing required parameter 'value'")
        value = params["value"]

        def step(session: ExplorationSession) -> Payload:
            session.set_requirement(name, value)
            return {"required": {name: value},
                    "report": self._report_payload(session),
                    "state": self._state_payload(session)}

        return self._session_view(params, step)

    def _handle_session_decide(self, params: Params) -> Payload:
        issue = _need_str(params, "issue")
        if "option" not in params:
            raise ServiceError("missing required parameter 'option'")
        option = params["option"]

        def step(session: ExplorationSession) -> Payload:
            outcome = session.decide(issue, option)
            return {
                "decided": {"issue": outcome.issue,
                            "option": outcome.option,
                            "generalized": outcome.generalized,
                            "survivors_before": outcome.survivors_before,
                            "survivors_after": outcome.survivors_after,
                            "eliminated": outcome.eliminated_count},
                "report": self._report_payload(session),
                "state": self._state_payload(session),
            }

        return self._session_view(params, step)

    def _handle_session_undo(self, params: Params) -> Payload:
        def step(session: ExplorationSession) -> Payload:
            session.undo()
            return {"report": self._report_payload(session),
                    "state": self._state_payload(session)}

        return self._session_view(params, step)

    def _handle_session_checkpoint(self, params: Params) -> Payload:
        tag = _need_str(params, "tag")

        def step(session: ExplorationSession) -> Payload:
            session.checkpoint(tag)
            return {"checkpoint": tag,
                    "state": self._state_payload(session)}

        return self._session_view(params, step)

    def _handle_session_goto(self, params: Params) -> Payload:
        tag = _need_str(params, "tag")

        def step(session: ExplorationSession) -> Payload:
            session.restore(tag)
            return {"restored": tag,
                    "report": self._report_payload(session),
                    "state": self._state_payload(session)}

        return self._session_view(params, step)

    def _handle_session_close(self, params: Params) -> Payload:
        served = self.sessions.close(_need_str(params, "token"))
        return {"token": served.token, "closed": True}
