"""The serve workload: one closed-loop client against a server child.

The server runs in its own process (``server.py``), so client and server
never share an interpreter lock.  The client sends a walk's next request
only after the previous reply arrived.  A walk is seven requests::

    open -> require Width -> decide Family -> options Variant
         -> decide Variant -> report -> close

No (Width, Family, Variant) state repeats within a run.  After the timed
phase the client builds the same serving layer and replays a seeded
sample of the walked states in-process; every served report digest of a
sampled state must match.
"""

from __future__ import annotations

import gc
import json
import random
import selectors
import signal
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.serve import ServiceClient

import inputs
import tracing
from measure import (SETUPS, RunResult, end_to_end, percentile,
                     timed_setups, vm_hwm_mb)
from paths import OUT, ROOT

#: Walks run before timing, taken from the run's own state stream.
WARM_WALKS = 32
#: Sampled states replayed in-process by the digest oracle.
ORACLE_SAMPLE = 48
READY_TIMEOUT_S = 120.0
BATCH_COUNTERS = ("dsl_prune_batch_leads_total",
                  "dsl_prune_batch_coalesced_total",
                  "dsl_prune_batch_hits_total")


class ServerChild:
    """A ``server.py`` process; ready once it answers ``/healthz``."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "server.py")]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self.proc = subprocess.Popen(command, cwd=str(ROOT),
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.url = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                raise RuntimeError("server child did not become ready")
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            raise RuntimeError(f"server child failed to start: {line!r}")
        client = ServiceClient(line[1], timeout=10.0)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while client.get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server child never answered /healthz")
            time.sleep(0.01)
        return line[1]

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Phase:
    """Closed-loop walks until a deadline (or a walk budget, for the
    warm-up)."""

    def __init__(self) -> None:
        self.requests: List[float] = []
        self.walks: List[float] = []
        self.reports: List[Tuple[inputs.State, str]] = []
        self.attempted = 0
        self.errors: List[str] = []
        self.window: Tuple[float, float] = (0.0, 0.0)

    def run(self, url: str, states: Iterator[inputs.State],
            seconds: float = 0.0, max_walks: int = 0) -> "Phase":
        client = ServiceClient(url, timeout=30.0)
        gc.collect()
        started = now = time.perf_counter()
        walked = 0
        while (walked < max_walks if max_walks
               else now - started < seconds):
            state = next(states, None)
            if state is None:
                break
            walked += 1
            try:
                self._walk(client, state)
            except Exception as exc:  # failed request: counted, walk dropped
                self.errors.append(f"{type(exc).__name__}: {exc}")
            now = time.perf_counter()
        self.window = (started, now)
        return self

    def _walk(self, client: ServiceClient, state: inputs.State) -> None:
        t0 = time.perf_counter()
        for verb, params in _requests(state):
            if verb != "session/open":
                params["token"] = token
            self.attempted += 1
            sent = time.perf_counter()
            status, body = client.request(verb, params)
            self.requests.append(time.perf_counter() - sent)
            if status != 200:
                raise RuntimeError(f"{verb} -> {status}: {body[:200]!r}")
            if verb == "session/open":
                token = json.loads(body)["token"]
            elif verb == "session/report":
                self.reports.append((state, json.loads(body)["digest"]))
        self.walks.append(time.perf_counter() - t0)


def _requests(state: inputs.State):
    width, family, variant = state
    return (("session/open", {"start": inputs.SERVE_START}),
            ("session/require", {"name": "Width", "value": width}),
            ("session/decide", {"issue": "Family", "option": family}),
            ("session/options", {"issue": "Variant"}),
            ("session/decide", {"issue": "Variant", "option": variant}),
            ("session/report", {}),
            ("session/close", {}))


def _batch_counters(url: str) -> Dict[str, float]:
    counts = dict.fromkeys(BATCH_COUNTERS, 0.0)
    for line in ServiceClient(url).metrics_text().splitlines():
        name, _, value = line.partition(" ")
        if name in counts:
            counts[name] = float(value)
    return counts


def _oracle(phases: List[Phase], seed: int, out: RunResult) -> None:
    """Replay a seeded sample of walked states in-process; every served
    digest of a sampled state must match."""
    reports = [report for phase in phases for report in phase.reports]
    states = sorted({state for state, _ in reports})
    sample = random.Random(f"oracle:{seed}").sample(
        states, min(ORACLE_SAMPLE, len(states)))
    layer = inputs.serving_layer()
    expected = {state: inputs.replay_digest(layer, state) for state in sample}
    checked = [(state, digest) for state, digest in reports
               if state in expected]
    wrong = sum(1 for state, digest in checked if digest != expected[state])
    out.failed += wrong
    out.notes.append(f"oracle: {len(checked)} of {len(reports)} served "
                     f"reports replayed ({len(sample)} states), "
                     f"{wrong} mismatched")


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Timed walks for ``seconds``; traced runs spend half of it on an
    untraced server and half on a traced one."""
    # Warm-up walks take their states from the run's own stream, so no
    # timed walk repeats one.
    states = inputs.unique_states(seed)
    out = RunResult()
    server, setups = timed_setups(ServerChild, ServerChild.stop,
                                  count=1 if trace else SETUPS)
    try:
        Phase().run(server.url, states, max_walks=WARM_WALKS)
        untraced = Phase().run(server.url, states,
                               seconds / 2 if trace else seconds)
        if not trace:
            end_to_end(out, untraced.walks, untraced.requests,
                       untraced.window, setups, server.peak_rss_mb())
    finally:
        server.stop()
    phases = [untraced]
    if trace:
        phases.append(_traced(f"{workload}-{seed}", states, seconds / 2,
                              untraced, out))
    for phase in phases:
        out.attempted += phase.attempted
        out.failed += len(phase.errors)
        out.notes.extend(f"error: {error}" for error in phase.errors[:5])
    _oracle(phases, seed, out)
    return out


def _traced(label: str, states: Iterator[inputs.State], seconds: float,
            untraced: Phase, out: RunResult) -> Phase:
    """The traced half: a server child with wrappers installed, client
    request spans in this process; returns the traced phase."""
    spans_path = str(OUT / f"spans-{label}-server.jsonl")
    tracer = tracing.Tracer()
    tracing.install_client(tracer)
    server = ServerChild(spans_path)
    try:
        Phase().run(server.url, states, max_walks=WARM_WALKS)
        before = _batch_counters(server.url)
        traced = Phase().run(server.url, states, seconds)
        after = _batch_counters(server.url)
    finally:
        server.stop()
    gauges, server_spans = tracing.read_spans(spans_path)
    client_spans = tracer.drain()
    tracer.write(str(OUT / f"spans-{label}-client.jsonl"), client_spans)
    totals = tracing.SpanTotals(server_spans + client_spans, traced.window)
    walks = len(traced.walks)
    leads, coalesced, hits = (after[name] - before[name]
                              for name in BATCH_COUNTERS)
    client_s = totals.prefixed_ms("client.") / 1e3
    walk_s = sum(traced.walks)
    traced_p50 = percentile(traced.walks, 50)
    untraced_p50 = percentile(untraced.walks, 50)
    out.metrics.update(tracing.per_layer_metrics(totals, walks, {
        "explore.frontier.admit_ratio": 0.0,
        "serve.batcher.hit_ratio": tracing.ratio(
            hits + coalesced, leads + coalesced + hits),
        "serve.sessions.max_active": gauges.get(
            "serve.sessions.max_active", 0.0),
        "trace.overhead_ratio": tracing.ratio(traced_p50, untraced_p50),
        "trace.uncovered_share": tracing.ratio(walk_s - client_s, walk_s),
    }))
    out.notes.append(
        f"untraced walks: {len(untraced.walks)} p50 "
        f"{untraced_p50 * 1e3:.1f} ms; traced walks: {walks} p50 "
        f"{traced_p50 * 1e3:.1f} ms")
    return traced
