"""Shared measurement helpers: percentiles, set-up timing, peak RSS,
the end-to-end metrics and the run result."""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUPS = 5
#: Samples that must lie beyond a tail percentile before it is reported.
TAIL_SAMPLES = 10


@dataclass
class RunResult:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value; units come from ``BENCHMARK.json``.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile (``q`` in 0..100) of a sample, interpolating linearly
    between the two nearest ranks (so ``q=50`` is the median); 0.0 for
    an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(out: RunResult, walks: Sequence[float],
               requests: Sequence[float], window: Tuple[float, float],
               setups: Sequence[float], peak_rss_mb: float) -> None:
    """Add the end-to-end metrics of a timed phase to ``out``.

    ``walks`` and ``requests`` are latencies in seconds; ``window`` is the
    phase's (start, end) and ``setups`` the set-up times, in seconds.

    ``request_p95_ms`` is the p95 only when at least ``TAIL_SAMPLES``
    samples lie beyond it; with fewer (an explore run holds about 25
    walks) it reads the median, since a p95 of so few samples is in
    effect the slowest one and varies far more between runs than the
    work does.
    """
    elapsed = window[1] - window[0]
    tail_q = 95 if len(requests) * 0.05 >= TAIL_SAMPLES else 50
    out.metrics.update({
        "setup_s": percentile(setups, 50),
        "walks_per_s": len(walks) / elapsed if elapsed else 0.0,
        "walk_p50_ms": percentile(walks, 50) * 1e3,
        "request_p50_ms": percentile(requests, 50) * 1e3,
        "request_p95_ms": percentile(requests, tail_q) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    })
    out.notes.append(
        f"walks: {len(walks)}, requests: {len(requests)} in "
        f"{elapsed:.2f} s; request_p95_ms is p{tail_q}; set-ups (s): "
        + ", ".join(f"{s:.3f}" for s in setups))


def timed_setups(build: Callable[[], object],
                 close: Optional[Callable[[object], None]] = None,
                 count: int = SETUPS) -> Tuple[object, List[float]]:
    """Run ``build`` ``count`` times, closing all but the last product
    (when there is a ``close``); returns the last product and every
    set-up time in seconds."""
    times: List[float] = []
    product = None
    for _ in range(count):
        if product is not None and close is not None:
            close(product)
        product = None  # freed before the next build, for peak RSS
        gc.collect()
        started = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - started)
    return product, times


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")

