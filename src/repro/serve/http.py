"""The socket shell: ``ThreadingHTTPServer`` around the service core.

Routes are deliberately few — the verb namespace lives in
:class:`~repro.serve.app.DesignSpaceService`, not in URL design:

* ``GET /healthz`` — liveness probe;
* ``GET /metrics`` — Prometheus text exposition of the service registry
  (per-route latency histograms, request counters, session gauge);
* ``POST /api/<verb>`` — JSON body in, canonical JSON out, where
  ``<verb>`` is any service verb (``query``, ``session/decide``, ...).

Connections are HTTP/1.1 keep-alive: one handler thread serves every
request a client sends on its connection, and closes it after
``CONNECTION_TIMEOUT`` idle seconds.  Responses go out with
``TCP_NODELAY``, so a body never waits behind the client's delayed ACK
of its headers.

Shutdown is graceful by construction: handler threads are non-daemon
and ``server_close`` blocks on them (``block_on_close``), so a SIGTERM
stops the accept loop, *drains every in-flight request*, then closes the
service's sessions.  Idle kept-alive connections
do not stall the drain: ``server_close`` shuts the read side of every
connection waiting for a request line, and a response written while the
server drains carries ``Connection: close``.
"""

from __future__ import annotations

import json
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Set, Tuple

from repro.serve.app import DesignSpaceService, canonical_json

#: How long an idle keep-alive connection may hold its handler thread.
CONNECTION_TIMEOUT = 5.0


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """One HTTP connection; all state lives on the server/service."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    timeout = CONNECTION_TIMEOUT
    # Headers and body leave in two sends; on a kept-alive socket Nagle
    # would hold the body until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def handle_one_request(self) -> None:
        server: DesignSpaceServer = self.server  # type: ignore[assignment]
        server.mark_idle(self.connection)
        try:  # idle until the first byte of the next request arrives
            waiting = self.rfile.peek(1)
        except OSError:  # idle timeout or a reset: nothing left to serve
            waiting = b""
        finally:
            server.mark_busy(self.connection)
        if not waiting:
            self.close_connection = True
            return
        super().handle_one_request()

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.server.draining:  # type: ignore[attr-defined]
            # also sets close_connection: this request is the last one
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _service(self) -> DesignSpaceService:
        return self.server.service  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self._service()
        started = time.perf_counter()
        if self.path == "/healthz":
            route, status = "healthz", 200
            body = canonical_json({"status": "ok",
                                   "sessions": len(service.sessions)})
            self._send(status, body)
        elif self.path == "/metrics":
            route, status = "metrics", 200
            text = service.metrics.render_prometheus()
            self._send(status, text.encode("utf-8"),
                       content_type="text/plain; version=0.0.4; "
                                    "charset=utf-8")
        else:
            route, status = "unknown", 404
            self._send(status, canonical_json(
                {"error": {"code": "not-found",
                           "message": f"no route {self.path!r}"}}))
        service.record_request(route, status, time.perf_counter() - started)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self._service()
        if not self.path.startswith("/api/"):
            self._send(404, canonical_json(
                {"error": {"code": "not-found",
                           "message": f"no route {self.path!r}; verbs "
                                      "live under /api/"}}))
            return
        verb = self.path[len("/api/"):]
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        status, payload = service.handle_json(verb, body)
        self._send(status, payload)

    def log_message(self, format: str, *args: object) -> None:
        log = getattr(self.server, "log", None)
        if log is not None:
            log(self.address_string(), format % args)


class DesignSpaceServer(ThreadingHTTPServer):
    """The service bound to a listening socket.

    Non-daemon handler threads + ``block_on_close`` give
    :meth:`server_close` drain semantics; :meth:`shutdown_gracefully`
    is safe to call from signal handlers (it only spawns the stopper).
    """

    daemon_threads = False
    block_on_close = True
    # The socketserver default backlog (5) resets connections when many
    # clients connect in the same instant; size it for a session fleet.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int],
                 service: DesignSpaceService,
                 json_logs: bool = False, quiet: bool = False) -> None:
        self.service = service
        self.json_logs = json_logs
        self.quiet = quiet
        self.draining = False
        self._idle: Set[socket.socket] = set()
        self._lock = threading.Lock()
        super().__init__(address, ServiceRequestHandler)

    def mark_idle(self, connection: socket.socket) -> None:
        """Mark ``connection`` as waiting for its next request line.

        Marking comes before the draining check, and :meth:`server_close`
        sets ``draining`` before it collects the idle set, so either the
        drain sees this connection or this call sees the drain.
        """
        with self._lock:
            self._idle.add(connection)
            draining = self.draining
        if draining:
            _shut_read(connection)

    def mark_busy(self, connection: socket.socket) -> None:
        """A request line arrived (or the connection ended)."""
        with self._lock:
            self._idle.discard(connection)

    def server_close(self) -> None:
        """Close idle connections, then drain the in-flight requests.

        Shutting the read side wakes each idle handler with EOF, so it
        closes at once; bytes that already arrived are still served.
        """
        with self._lock:
            self.draining = True
            idle = list(self._idle)
        for connection in idle:
            _shut_read(connection)
        super().server_close()

    def log(self, client: str, message: str) -> None:
        if self.quiet:
            return
        if self.json_logs:
            record = {"ts": time.time(), "client": client,
                      "message": message}
            sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            sys.stderr.write(f"{client} - {message}\n")

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        display = "127.0.0.1" if host in ("0.0.0.0", "") else host
        return f"http://{display}:{port}"

    def shutdown_gracefully(self) -> threading.Thread:
        """Stop the accept loop from any thread without deadlocking.

        ``shutdown()`` blocks until ``serve_forever`` exits, so calling
        it directly from a signal handler running on the serving thread
        would deadlock; a one-shot stopper thread breaks the knot.
        """
        stopper = threading.Thread(target=self.shutdown,
                                   name="dsl-serve-stopper", daemon=True)
        stopper.start()
        return stopper


def _shut_read(connection: socket.socket) -> None:
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:  # its handler closed it first
        pass


def serve(service: DesignSpaceService, host: str = "127.0.0.1",
          port: int = 8080, json_logs: bool = False,
          install_signal_handlers: bool = True,
          ready: Optional[Callable[[DesignSpaceServer], None]] = None
          ) -> int:
    """Run the server until SIGTERM/SIGINT; returns the exit code.

    ``ready`` fires after the socket is bound (the CLI prints the
    resolved URL there; tests grab the ephemeral port).  The drain
    order on shutdown: stop accepting, join in-flight handlers, then
    close the service (sessions, batch cache).
    """
    server = DesignSpaceServer((host, port), service, json_logs=json_logs)

    def _initiate(signum: int, frame: object) -> None:
        server.shutdown_gracefully()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _initiate)
        signal.signal(signal.SIGINT, _initiate)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        service.close()
    return 0


def probe_port(host: str, port: int, timeout: float = 1.0) -> bool:
    """True when something accepts TCP connections at ``host:port``."""
    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False
