"""The design-space service layer: many designers, one shared layer.

The paper's central claim is that the design space layer is a *shared
medium* — several designers query, prune and explore the same space at
once.  This package serves that medium over HTTP/JSON with nothing but
the standard library:

* :class:`~repro.serve.state.SessionManager` — token-keyed
  copy-on-write sessions with idle-TTL eviction;
* :class:`~repro.serve.batching.PruneBatcher` — single-flight
  coalescing of identical prune evaluations across sessions;
* :class:`~repro.serve.app.DesignSpaceService` — the verb handlers,
  transport-free, reading each live layer and its epoch directly (every
  layer mutation bumps ``layer.epoch``, and every cache keys on it);
* :class:`~repro.serve.http.DesignSpaceServer` / :func:`serve` — the
  ``ThreadingHTTPServer`` shell with ``/metrics`` and graceful drain;
* :class:`~repro.serve.client.ServiceClient` — a keep-alive client for
  tests and load benchmarks.

See ``docs/serving.md`` for the API surface and operational notes.
"""

from repro.serve.app import (
    DesignSpaceService,
    canonical_json,
    default_layer_factories,
)
from repro.serve.batching import PruneBatcher
from repro.serve.client import ServiceClient, ServiceClientError, SessionHandle
from repro.serve.errors import ServiceError
from repro.serve.http import DesignSpaceServer, ServiceRequestHandler, serve
from repro.serve.state import ServedSession, SessionManager

__all__ = [
    "DesignSpaceServer",
    "DesignSpaceService",
    "PruneBatcher",
    "ServedSession",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceRequestHandler",
    "SessionHandle",
    "SessionManager",
    "canonical_json",
    "default_layer_factories",
    "serve",
]
