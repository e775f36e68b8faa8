"""The HTTP shell: routing, exposition format, drain-on-shutdown,
kept-alive client transport, CLI."""

import json
import re
import socket
import statistics
import sys
import threading
import time

import pytest

from repro import cli
from repro.serve import (
    DesignSpaceServer,
    DesignSpaceService,
    ServiceClient,
    ServiceClientError,
    serve,
)
from repro.serve.http import ServiceRequestHandler

from conftest import build_widget_layer

# One Prometheus text-exposition line: comment/HELP/TYPE, or a sample
# ``name{labels} value`` where the value parses as a float/+Inf.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"
    r" (?:[-+]?(?:[0-9.eE+-]+)|\+Inf|NaN)$")
HEADER_RE = re.compile(
    r"^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))$")


def assert_valid_exposition(text: str) -> None:
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        assert SAMPLE_RE.match(line) or HEADER_RE.match(line), line


def start_server(service):
    server = DesignSpaceServer(("127.0.0.1", 0), service, quiet=True)
    # a short poll interval keeps each test's shutdown() wait short
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture()
def stack():
    service = DesignSpaceService(layers={"widgets": build_widget_layer()})
    server, thread = start_server(service)
    client = ServiceClient(server.url)
    try:
        yield service, server, client
    finally:
        server.shutdown_gracefully().join(10.0)
        server.server_close()
        service.close()
        thread.join(10.0)
        client.close()


class TestRouting:
    def test_healthz_reports_ok(self, stack):
        _, _, client = stack
        status, body = client.get("/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_api_verbs_round_trip(self, stack):
        _, _, client = stack
        payload = client.call("query", layer="widgets", under="Widget.hw")
        assert payload["count"] == 3

    def test_session_walk_over_http(self, stack):
        _, _, client = stack
        handle = client.open_session("Widget", layer="widgets")
        handle.require("Width", 64)
        report = handle.decide("Style", "hw")["report"]
        assert report["survivors"] == 2
        handle.undo()
        handle.goto("origin")
        assert handle.report()["survivors"] == 5
        assert handle.close()["closed"] is True

    def test_served_bytes_equal_in_process_bytes(self, stack):
        service, _, client = stack
        status, body = client.request("query", {"layer": "widgets",
                                                "order_by": "area"})
        _, expected = service.handle_json(
            "query", json.dumps({"layer": "widgets",
                                 "order_by": "area"}).encode())
        assert status == 200
        assert body == expected

    def test_error_payloads_surface_status_and_code(self, stack):
        _, _, client = stack
        status, body = client.request("no-such-verb", {})
        assert status == 404
        assert json.loads(body)["error"]["code"] == "unknown-verb"
        with pytest.raises(ServiceClientError):
            client.call("no-such-verb")

    def test_unknown_paths_are_404(self, stack):
        _, _, client = stack
        assert client.get("/nope")[0] == 404


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_carries_the_server_metrics(self, stack):
        _, _, client = stack
        handle = client.open_session("Widget", layer="widgets")
        handle.report()
        client.call("query", layer="widgets")
        text = client.metrics_text()
        assert_valid_exposition(text)
        assert "# TYPE dsl_request_seconds histogram" in text
        assert "# TYPE dsl_sessions_active gauge" in text
        assert 'dsl_requests_total{route="query",status="200"}' in text
        assert re.search(
            r'dsl_request_seconds_bucket\{route="query",le="\+Inf"\} [1-9]',
            text)
        assert "dsl_sessions_active 1" in text

    def test_histogram_buckets_are_cumulative(self, stack):
        _, _, client = stack
        client.call("query", layer="widgets")
        text = client.metrics_text()
        counts = [int(m.group(1)) for m in re.finditer(
            r'dsl_request_seconds_bucket\{route="query",le="[^"]+"\} (\d+)',
            text)]
        assert counts == sorted(counts)
        assert counts, "query histogram missing"


class SlowService(DesignSpaceService):
    """Adds a deliberately slow verb so drain tests have a request to
    catch in flight."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.slow_started = threading.Event()
        self._routes["slow"] = self._handle_slow

    def _handle_slow(self, params):
        self.slow_started.set()
        time.sleep(float(params.get("seconds", 0.4)))
        return {"slept": True}


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_requests(self):
        service = SlowService(layers={"widgets": build_widget_layer()})
        server, server_thread = start_server(service)
        client = ServiceClient(server.url)
        results = []

        def slow_call():
            results.append(client.call("slow", seconds=0.4))

        request_thread = threading.Thread(target=slow_call)
        request_thread.start()
        assert service.slow_started.wait(5.0)
        # Stop accepting while the slow request is mid-handler; the
        # drain (server_close joins non-daemon handler threads) must let
        # it finish.
        server.shutdown_gracefully().join(10.0)
        server.server_close()
        service.close()
        request_thread.join(10.0)
        server_thread.join(10.0)
        client.close()
        assert results == [{"slept": True}]

    def test_drain_closes_idle_kept_alive_connections(self):
        service = DesignSpaceService(layers={"widgets":
                                             build_widget_layer()})
        server, server_thread = start_server(service)
        with ServiceClient(server.url) as client:
            assert client.get("/healthz")[0] == 200
            server.shutdown_gracefully().join(10.0)
            started = time.monotonic()
            server.server_close()
            took = time.monotonic() - started
            service.close()
            server_thread.join(10.0)
        # without the drain, the idle connection holds its handler
        # thread for the whole CONNECTION_TIMEOUT (5 s)
        assert took < 1.0

    def test_drain_finishes_a_request_on_a_kept_alive_connection(self):
        service = SlowService(layers={"widgets": build_widget_layer()})
        server, server_thread = start_server(service)
        results = []
        with ServiceClient(server.url) as busy, \
                ServiceClient(server.url) as idle:
            # both connections are open and reused before the drain
            assert busy.get("/healthz")[0] == 200
            assert idle.get("/healthz")[0] == 200
            request_thread = threading.Thread(
                target=lambda: results.append(busy.call("slow",
                                                        seconds=0.4)))
            request_thread.start()
            assert service.slow_started.wait(5.0)
            server.shutdown_gracefully().join(10.0)
            started = time.monotonic()
            server.server_close()
            took = time.monotonic() - started
            service.close()
            request_thread.join(10.0)
            server_thread.join(10.0)
        assert not request_thread.is_alive()
        assert results == [{"slept": True}]
        assert took < 1.0

    def test_a_connection_going_idle_during_the_drain_closes(
            self, monkeypatch):
        service = DesignSpaceService(layers={"widgets":
                                             build_widget_layer()})
        server, server_thread = start_server(service)
        marks = []
        held = threading.Event()
        release = threading.Event()
        mark_idle = DesignSpaceServer.mark_idle

        def mark_idle_late(self, connection):
            # hold the handler between its first response and going idle
            marks.append(connection)
            if len(marks) == 2:
                held.set()
                release.wait(10.0)
            mark_idle(self, connection)

        monkeypatch.setattr(DesignSpaceServer, "mark_idle", mark_idle_late)
        with ServiceClient(server.url) as client:
            assert client.get("/healthz")[0] == 200
            assert held.wait(5.0)
            server.shutdown_gracefully().join(10.0)
            closer = threading.Thread(target=server.server_close)
            started = time.monotonic()
            closer.start()
            deadline = started + 5.0
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            closer.join(10.0)
            took = time.monotonic() - started
        service.close()
        server_thread.join(10.0)
        assert not closer.is_alive()
        assert took < 1.0

    def test_drain_under_a_request_storm_misses_no_connection(self):
        service = DesignSpaceService(layers={"widgets":
                                             build_widget_layer()})
        server, server_thread = start_server(service)
        statuses = []

        def storm():
            with ServiceClient(server.url, timeout=10.0) as client:
                while True:
                    try:
                        statuses.append(client.get("/healthz")[0])
                    except OSError:  # closed by the drain, then refused
                        return

        clients = [threading.Thread(target=storm) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            time.sleep(0.2)
            server.shutdown_gracefully().join(10.0)
            started = time.monotonic()
            server.server_close()
            took = time.monotonic() - started
            for thread in clients:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
            service.close()
            server_thread.join(10.0)
        assert not any(thread.is_alive() for thread in clients)
        assert statuses and set(statuses) == {200}
        # a connection that missed the drain would hold server_close
        # for its whole CONNECTION_TIMEOUT (5 s)
        assert took < 2.0

    def test_serve_helper_runs_ready_and_closes_the_service(self):
        service = DesignSpaceService(layers={"widgets":
                                             build_widget_layer()})
        ready_box = {}

        def ready(server):
            ready_box["server"] = server

        def run():
            serve(service, host="127.0.0.1", port=0,
                  install_signal_handlers=False, ready=ready)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while "server" not in ready_box and time.monotonic() < deadline:
            time.sleep(0.01)
        server = ready_box["server"]
        with ServiceClient(server.url) as client:
            assert client.call("query", layer="widgets")["count"] == 5
        server.shutdown_gracefully()
        thread.join(10.0)
        assert not thread.is_alive()
        # serve()'s finally closed the service: new work is refused.
        status, _ = service.handle("query", {"layer": "widgets"})
        assert status == 503


class TestKeptAliveClient:
    def test_requests_on_one_connection_do_not_stall(self, stack):
        _, _, client = stack
        took = []
        for _ in range(50):
            started = time.perf_counter()
            status, _ = client.request("query", {"layer": "widgets"})
            took.append(time.perf_counter() - started)
            assert status == 200
        # Nagle holding each response body until the client's delayed
        # ACK of the headers measured ~44 ms a request
        assert statistics.median(took) < 0.020

    def test_idle_timeout_reconnects_and_applies_a_decide_once(
            self, stack, monkeypatch):
        monkeypatch.setattr(ServiceRequestHandler, "timeout", 0.2)
        service, _, client = stack
        handle = client.open_session("Widget", layer="widgets")
        time.sleep(0.6)  # the server closes the idle connection meanwhile
        assert handle.decide("Style", "hw")["report"]["survivors"] == 3
        served = handle.call("session/state")
        # the log of one decide made in-process
        _, opened = service.handle("session/open", {"layer": "widgets",
                                                    "start": "Widget"})
        token = opened["token"]
        service.handle("session/decide", {"token": token, "issue": "Style",
                                          "option": "hw"})
        _, direct = service.handle("session/state", {"token": token})
        assert served["decisions"] == {"Style": "hw"}
        assert served["log_length"] == direct["log_length"]

    def test_a_post_that_reached_the_server_is_not_resent(self):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        seen = []
        stop = threading.Event()

        def read_one_request_then_hang_up():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.settimeout(5.0)
                    data = b""
                    while b"\r\n\r\n" not in data:
                        data += conn.recv(4096)
                    head, _, body = data.partition(b"\r\n\r\n")
                    length = int(re.search(rb"Content-Length: (\d+)",
                                           head, re.IGNORECASE).group(1))
                    while len(body) < length:
                        body += conn.recv(4096)
                    seen.append(head.split(b"\r\n")[0])

        stub = threading.Thread(target=read_one_request_then_hang_up)
        stub.start()
        host, port = listener.getsockname()
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                with pytest.raises(OSError):
                    client.request("session/decide",
                                   {"token": "t", "issue": "Style",
                                    "option": "hw"})
        finally:
            stop.set()
            stub.join(10.0)
            listener.close()
        assert not stub.is_alive()
        assert seen == [b"POST /api/session/decide HTTP/1.1"]


class TestCli:
    def test_serve_parser_defaults_and_flags(self):
        parser = cli.build_parser()
        args = parser.parse_args(["serve", "--port", "0",
                                  "--json-logs", "--session-ttl", "60"])
        assert args.fn is cli.cmd_serve
        assert (args.host, args.port) == ("127.0.0.1", 0)
        assert not hasattr(args, "jobs")
        assert args.json_logs is True
        assert args.session_ttl == 60.0
        assert args.layer == "crypto"  # shared layer-args parent

    def test_cmd_serve_wires_args_into_the_server(self, monkeypatch):
        captured = {}

        def fake_serve(service, host, port, json_logs, ready):
            captured.update(service=service, host=host, port=port,
                            json_logs=json_logs)
            return 0

        import repro.serve as serve_module
        monkeypatch.setattr(serve_module, "serve", fake_serve)
        rc = cli.main(["serve", "--host", "0.0.0.0", "--port", "0",
                       "--json-logs", "--layer", "idct"])
        assert rc == 0
        assert captured["host"] == "0.0.0.0"
        assert captured["json_logs"] is True
        service = captured["service"]
        assert service.default_layer == "idct"
        service.close()

    def test_json_logs_are_structured(self, capsys):
        service = DesignSpaceService(layers={"widgets":
                                             build_widget_layer()})
        server = DesignSpaceServer(("127.0.0.1", 0), service,
                                   json_logs=True)
        try:
            server.log("127.0.0.1", "GET /healthz 200")
            record = json.loads(capsys.readouterr().err.strip())
            assert record["client"] == "127.0.0.1"
            assert "GET /healthz" in record["message"]
        finally:
            server.server_close()
            service.close()
