"""A thin stdlib client for the service, used by tests and benchmarks.

A :class:`ServiceClient` keeps one HTTP/1.1 connection open and sends
every request on it, so a session walk pays for one TCP connection, not
one per request.  The connection is not shared: use one client per
thread.  :meth:`request` returns the raw status + body bytes so the
digest oracle can compare served bytes against direct library calls
without a decode/re-encode round trip, and :meth:`call` adds the JSON +
raise-on-error convenience everything else wants.
"""

from __future__ import annotations

import http.client
import json
import select
import urllib.parse
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

_JSON_HEADERS = {"Content-Type": "application/json"}


class ServiceClientError(ReproError):
    """An error response from the server, with its payload attached."""

    def __init__(self, status: int, payload: object) -> None:
        detail = payload
        if isinstance(payload, dict):
            detail = payload.get("error", payload)
        super().__init__(f"server returned {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """JSON verbs against one server; also a session-verb convenience.

    Transport failures raise :class:`OSError` subclasses.  A request is
    never sent twice: a connection the server closed while it sat idle
    is replaced before the request goes out, and a failure after the
    request went out is raised, not retried.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        self._path = parts.path
        self._conn = http.client.HTTPConnection(parts.netloc,
                                                timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # raw byte-level surface (the digest oracle uses this)
    # ------------------------------------------------------------------
    def get(self, path: str) -> Tuple[int, bytes]:
        return self._send("GET", path)

    def request(self, verb: str, params: Optional[Dict[str, object]] = None
                ) -> Tuple[int, bytes]:
        body = json.dumps(params or {}).encode("utf-8")
        return self._send("POST", f"/api/{verb}", body)

    def _send(self, method: str, path: str, body: Optional[bytes] = None
              ) -> Tuple[int, bytes]:
        conn = self._conn
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # Between requests the server has nothing to say: a readable
            # socket was closed by it (idle timeout, drain).  Reconnect
            # before sending, while nothing can have reached the server.
            conn.close()
        try:
            conn.request(method, self._path + path, body,
                         {} if body is None else _JSON_HEADERS)
            response = conn.getresponse()
            # Error statuses are responses too, with JSON payloads: the
            # caller decides whether a 4xx is fatal.
            return response.status, response.read()
        except OSError:
            conn.close()
            raise
        except http.client.HTTPException as error:
            conn.close()
            raise ConnectionError(
                f"{method} {path}: malformed response: {error!r}") from error

    # ------------------------------------------------------------------
    # decoded convenience surface
    # ------------------------------------------------------------------
    def call(self, verb: str, **params: object) -> Dict[str, object]:
        status, body = self.request(verb, params)
        payload = json.loads(body) if body else {}
        if status >= 400:
            raise ServiceClientError(status, payload)
        return payload

    def metrics_text(self) -> str:
        status, body = self.get("/metrics")
        if status != 200:
            raise ServiceClientError(status, body.decode("utf-8", "replace"))
        return body.decode("utf-8")

    def open_session(self, start: str, layer: Optional[str] = None,
                     **params: object) -> "SessionHandle":
        if layer is not None:
            params["layer"] = layer
        payload = self.call("session/open", start=start, **params)
        return SessionHandle(self, str(payload["token"]), payload)


class SessionHandle:
    """Token plumbing for one served session."""

    def __init__(self, client: ServiceClient, token: str,
                 opened: Dict[str, object]) -> None:
        self.client = client
        self.token = token
        self.opened = opened

    def call(self, verb: str, **params: object) -> Dict[str, object]:
        return self.client.call(verb, token=self.token, **params)

    def decide(self, issue: str, option: object) -> Dict[str, object]:
        return self.call("session/decide", issue=issue, option=option)

    def require(self, name: str, value: object) -> Dict[str, object]:
        return self.call("session/require", name=name, value=value)

    def undo(self) -> Dict[str, object]:
        return self.call("session/undo")

    def goto(self, tag: str) -> Dict[str, object]:
        return self.call("session/goto", tag=tag)

    def checkpoint(self, tag: str) -> Dict[str, object]:
        return self.call("session/checkpoint", tag=tag)

    def report(self) -> Dict[str, object]:
        return self.call("session/report")

    def close(self) -> Dict[str, object]:
        return self.call("session/close")
