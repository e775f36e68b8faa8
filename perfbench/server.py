"""Server child for the serve workload: one ``DesignSpaceServer`` process.

Started by ``serve_workloads.py``, never by hand::

    python3 perfbench/server.py [--spans FILE]

It builds the 50k-core serving layer and its index, binds an ephemeral
port on 127.0.0.1, prints ``READY <url>`` on stdout and serves until
SIGTERM, then drains in-flight requests.  With ``--spans`` the tracing
wrappers are installed before serving and every span is written to
FILE on the way out.
"""

from __future__ import annotations

import argparse
import signal
import sys

import paths

paths.use_repo_source()

from repro.core import ExplorationSession  # noqa: E402
from repro.serve import DesignSpaceServer, DesignSpaceService  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer, serving=True)
    layer = inputs.serving_layer()
    # Build the index now, in a private session, so readiness means the
    # first request pays no index build (the service's caches stay cold).
    ExplorationSession(layer, inputs.SERVE_START).candidates()
    service = DesignSpaceService(layers={"scale": layer},
                                 default_layer="scale")
    server = DesignSpaceServer(("127.0.0.1", 0), service, quiet=True)
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: server.shutdown_gracefully())
    print(f"READY {server.url}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        service.close()
    if tracer is not None:
        tracer.write(args.spans, tracer.drain())
    return 0


if __name__ == "__main__":
    sys.exit(main())
