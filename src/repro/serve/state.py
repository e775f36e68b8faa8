"""Per-session server state: tokens, idle-TTL eviction, serialization.

Sessions are the *copy-on-write* half of the service design: every
designer gets a private :class:`~repro.core.session.ExplorationSession`
(requirements, decisions, undo history, checkpoints) while the layer
itself — the expensive part — stays shared.  A session mutates only its
own copied dicts; it never writes the shared layer.

:class:`ExplorationSession` is single-owner by contract ("never handed
across threads" — see ``repro.analysis.contract``).  The server hands
the *token* across threads instead: whichever handler thread presents
the token next acquires the :class:`ServedSession` lock and becomes the
session's momentary owner, so the wrapped session still ever sees one
thread at a time.
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import Callable, Dict, List, Optional, TypeVar

from repro.core.session import ExplorationSession
from repro.serve.errors import ServiceError

T = TypeVar("T")

#: Default idle lifetime of an abandoned session, seconds.
DEFAULT_TTL = 900.0

#: Default cap on concurrently open sessions (memory backstop).
DEFAULT_MAX_SESSIONS = 4096


class ServedSession:
    """One designer's session plus the bookkeeping the server needs.

    All access to the wrapped session funnels through :meth:`run`, which
    serializes handler threads on the per-session lock and refreshes the
    idle clock.  ``layer_key`` is the key the service serves the layer
    under, which need not be the layer's own name.
    """

    def __init__(self, token: str, session: ExplorationSession,
                 layer_key: str, start: str, now: float) -> None:
        self._lock = threading.RLock()
        self.token = token
        self.layer_key = layer_key
        self.start = start
        self._session = session
        self._last_used = now
        self._closed = False

    @property
    def last_used(self) -> float:
        with self._lock:
            return self._last_used

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def run(self, now: float, fn: Callable[[ExplorationSession], T]) -> T:
        """Run ``fn`` against the session as its momentary owner."""
        with self._lock:
            if self._closed:
                raise ServiceError(f"session {self.token!r} is closed",
                                   status=410, code="session-closed")
            self._last_used = now
            return fn(self._session)

    def mark_closed(self) -> None:
        with self._lock:
            self._closed = True


class SessionManager:
    """Token-keyed registry of live sessions with idle-TTL eviction.

    Eviction is piggybacked on every :meth:`open`/:meth:`get` (no
    background reaper thread to manage), and :meth:`evict_idle` is
    public so the server loop or tests can force a sweep.  The clock is
    injectable so TTL tests do not sleep.
    """

    def __init__(self, ttl: float = DEFAULT_TTL,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[object] = None) -> None:
        self._lock = threading.Lock()
        self._sessions: Dict[str, ServedSession] = {}
        self._ttl = float(ttl)
        self._max_sessions = int(max_sessions)
        self._clock = clock
        if metrics is not None:
            self._active = metrics.gauge(
                "dsl_sessions_active", "Currently open exploration sessions")
            self._opened = metrics.counter(
                "dsl_sessions_opened_total", "Sessions opened since start")
            self._evicted = metrics.counter(
                "dsl_sessions_evicted_total", "Sessions evicted by idle TTL")
        else:
            self._active = None
            self._opened = None
            self._evicted = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    @property
    def ttl(self) -> float:
        return self._ttl

    def now(self) -> float:
        return self._clock()

    def _publish_active(self) -> None:
        """Refresh the active-session gauge (lock held by caller)."""
        if self._active is not None:
            self._active.set(len(self._sessions))

    def open(self, factory: Callable[[], ExplorationSession],
             layer_key: str, start: str) -> ServedSession:
        """Create, register and return a new served session."""
        now = self._clock()
        session = factory()
        # dsa: allow[DSA041] -- tokens are addresses, unpredictable by design
        token = secrets.token_hex(16)
        served = ServedSession(token, session, layer_key, start, now)
        self.evict_idle(now)
        with self._lock:
            if len(self._sessions) >= self._max_sessions:
                raise ServiceError(
                    f"session limit reached ({self._max_sessions})",
                    status=503, code="session-limit")
            self._sessions[token] = served
            self._publish_active()
        if self._opened is not None:
            self._opened.inc()
        return served

    def get(self, token: str) -> ServedSession:
        self.evict_idle(self._clock())
        with self._lock:
            served = self._sessions.get(token)
        if served is None:
            raise ServiceError(f"unknown session {token!r}",
                               status=404, code="unknown-session")
        return served

    def close(self, token: str) -> ServedSession:
        with self._lock:
            served = self._sessions.pop(token, None)
            self._publish_active()
        if served is None:
            raise ServiceError(f"unknown session {token!r}",
                               status=404, code="unknown-session")
        served.mark_closed()
        return served

    def evict_idle(self, now: Optional[float] = None) -> List[str]:
        """Force a TTL sweep; returns the evicted tokens."""
        if now is None:
            now = self._clock()
        with self._lock:
            deadline = now - self._ttl
            victims = [served for served in self._sessions.values()
                       if served.last_used <= deadline]
            for served in victims:
                del self._sessions[served.token]
            self._publish_active()
        for victim in victims:
            victim.mark_closed()
        if self._evicted is not None and victims:
            self._evicted.inc(len(victims))
        return [victim.token for victim in victims]

    def close_all(self) -> int:
        """Drop every session (server shutdown); returns the count."""
        with self._lock:
            victims = list(self._sessions.values())
            self._sessions = {}
            self._publish_active()
        for victim in victims:
            victim.mark_closed()
        return len(victims)
