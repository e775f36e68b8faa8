"""The explore workload: serial exhaustive walks.

A walk is one ``explore()`` call on the 50k-core explore layer with its
own seeded ``Width`` requirement in 9..16.  Every walk does the same
work (256 terminals, 40 000 outcomes) and must reach the frontier digest
``inputs.EXPLORE_DIGEST``; digests are checked after the timed phase.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Iterator, List, Optional, Tuple

from repro.core import ExplorationSession
from repro.core.explore import ExplorationProblem, explore

import inputs
import tracing
from measure import (SETUPS, RunResult, end_to_end, percentile,
                     timed_setups, vm_hwm_mb)
from paths import OUT


class Rig:
    """The system under test: the layer with its index built."""

    def __init__(self) -> None:
        self.layer = inputs.explore_layer()
        ExplorationSession(self.layer, "Design").candidates()  # index

    def problem(self, width: int) -> ExplorationProblem:
        return ExplorationProblem(
            start="Design", metrics=inputs.METRICS,
            requirements={"Width": width}, layer=self.layer)


class Phase:
    """Walks run back to back for a fixed time; results kept for checks."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.results: List[object] = []
        self.errors: List[str] = []
        self.window: Tuple[float, float] = (0.0, 0.0)

    def run(self, rig: Rig, widths: Iterator[int], seconds: float,
            tracer: Optional[tracing.Tracer] = None) -> "Phase":
        gc.collect()
        started = now = time.perf_counter()
        while now - started < seconds:
            problem = rig.problem(next(widths))
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = explore(problem)
                else:
                    result = tracer.call("bench.walk", explore, problem)
            except Exception as exc:  # a failed walk is counted, not fatal
                self.errors.append(f"{type(exc).__name__}: {exc}")
                now = time.perf_counter()
                continue
            now = time.perf_counter()
            self.latencies.append(now - t0)
            self.results.append(result)
        self.window = (started, now)
        return self

    def account(self, out: RunResult) -> None:
        """Check every digest and add this phase's counts to ``out``."""
        wrong = sum(1 for result in self.results
                    if result.frontier.digest() != inputs.EXPLORE_DIGEST
                    or result.stats.terminals != inputs.EXPLORE_TERMINALS
                    or result.stats.outcomes != inputs.EXPLORE_OUTCOMES)
        out.attempted += len(self.results) + len(self.errors)
        out.failed += len(self.errors) + wrong
        out.notes.extend(f"error: {error}" for error in self.errors[:5])
        if wrong:
            out.notes.append(f"{wrong} walk(s) missed digest "
                             f"{inputs.EXPLORE_DIGEST}")

    def walk_p50_ms(self) -> float:
        return percentile(self.latencies, 50) * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Timed walks for ``seconds``; traced runs spend half of it untraced
    and half traced."""
    widths = inputs.explore_widths(seed)
    out = RunResult()
    rig, setups = timed_setups(Rig, count=1 if trace else SETUPS)
    explore(rig.problem(next(widths)))  # warm-up walk, untimed
    untraced = Phase().run(rig, widths, seconds / 2 if trace else seconds)
    untraced.account(out)
    if not trace:
        # On this workload one request is one explore() call.
        end_to_end(out, untraced.latencies, untraced.latencies,
                   untraced.window, setups, vm_hwm_mb(os.getpid()))
        return out
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = Phase().run(rig, widths, seconds / 2, tracer)
    traced.account(out)
    _per_layer(out, tracer, untraced, traced, f"{workload}-{seed}")
    return out


def _per_layer(out: RunResult, tracer: tracing.Tracer, untraced: Phase,
               traced: Phase, label: str) -> None:
    spans = tracer.drain()
    tracer.write(str(OUT / f"spans-{label}.jsonl"), spans)
    totals = tracing.SpanTotals(spans, traced.window)
    walks = len(traced.results)
    walk_s = totals.seconds.get("bench.walk", 0.0)
    out.metrics.update(tracing.per_layer_metrics(totals, walks, {
        "explore.frontier.admit_ratio": tracing.ratio(
            sum(len(r.frontier) for r in traced.results),
            sum(r.stats.outcomes for r in traced.results)),
        "serve.batcher.hit_ratio": 0.0,
        "serve.sessions.max_active": 0.0,
        "trace.overhead_ratio": tracing.ratio(traced.walk_p50_ms(),
                                              untraced.walk_p50_ms()),
        "trace.uncovered_share": tracing.ratio(
            walk_s - totals.child_seconds.get("bench.walk", 0.0), walk_s),
    }))
    out.notes.append(
        f"untraced walks: {len(untraced.results)} p50 "
        f"{untraced.walk_p50_ms():.1f} ms; traced walks: {walks} p50 "
        f"{traced.walk_p50_ms():.1f} ms")
