#!/usr/bin/env python
"""Record pruning/observability timings into a committed JSON file.

``BENCH_pruning.json`` (repo root) is the durable record of:

* the crypto case-study pruning walk (the paper's Sec 5 loop) — per-run
  wall times on the recording machine;
* the tracing overhead on a 50k-core synthetic pruning walk — the
  no-op-recorder baseline vs the same walk with a
  :class:`~repro.core.obs.recorder.TraceRecorder` attached, plus the
  min-over-min ratio the CI overhead gate enforces (< 1.10);
* the runtime mutation sanitizer's overhead on the same walk — plain vs
  sanitizer-armed (layer sealed), gated < 1.25x min-over-min;
* exploration parallelism on the 50k synthetic layer — serial vs a warm
  snapshot-hydrated worker pool, plus the jobs 1/2/4 ``parallel_scaling``
  sweep (chunked vs per-task dispatch, snapshot capture/hydrate cost);
  next to the timings, host-independent counts: ``range_probes``
  (option-range computations in one walk per strategy), ``bound_probes``
  (ideal-point computations in one walk per strategy) and
  ``retained_kb_per_result`` (memory one kept result holds);
* distributed tracing on the same parallel walk — untraced vs traced
  (worker span buffers + deterministic merge) on a warm jobs=4 pool,
  gated < 1.10x min-over-min like the serial tracing budget;
* the semantic verifier on a 5k-core synthetic layer — a cold analysis
  vs a warm epoch-cached re-verify (gate: warm < 5% of cold).

``BENCH_serving.json`` (repo root) is the durable record of the service
layer's load benchmark — 64 concurrent HTTP sessions against the
50k-core synthetic layer: request p50/p95/p99, prune-batching counters,
and the digest oracle (served bytes vs direct in-process library calls).
The digest gate applies on any machine; the p95 latency budget only
when the recording machine has >= 4 CPUs.

Usage::

    PYTHONPATH=src python benchmarks/record.py [--output BENCH_pruning.json]
                                               [--repeat 5] [--cores 50000]
    PYTHONPATH=src python benchmarks/record.py --serving-only \\
                                               [--serving-output BENCH_serving.json]

The measurement helpers are imported by ``test_bench_obs.py`` and
``test_bench_serving.py`` so the benchmark suite and this recorder
cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:  # direct `python benchmarks/record.py` runs
    sys.path.insert(0, _HERE)

DEFAULT_OUTPUT = os.path.join(_HERE, os.pardir, "BENCH_pruning.json")
DEFAULT_SERVING_OUTPUT = os.path.join(_HERE, os.pardir,
                                      "BENCH_serving.json")
#: The CI gate: p95 served-request latency over 64 concurrent sessions
#: on the 50k-core layer (enforced only on machines with >= 4 CPUs).
SERVING_P95_BUDGET = 0.5
#: The CI gate: traced walk may cost at most 10% over the no-op walk.
OVERHEAD_BUDGET = 1.10
#: The CI gate: a warm (epoch-cached) re-verify of an unchanged layer
#: must cost under 5% of a cold analysis.
VERIFY_WARM_BUDGET = 0.05
#: The CI gate: the pruning walk with the runtime mutation sanitizer
#: armed (layer sealed) may cost at most 25% over the plain walk.
SANITIZER_BUDGET = 1.25


def _runs(fn: Callable[[], object], repeat: int) -> List[float]:
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _summary(runs: List[float]) -> Dict[str, object]:
    return {
        "unit": "seconds",
        "runs": [round(r, 6) for r in runs],
        "min": round(min(runs), 6),
        "mean": round(statistics.mean(runs), 6),
    }


def crypto_walk_runs(repeat: int = 5) -> List[float]:
    """Per-run times of the Sec 5 case-study pruning walk."""
    from test_bench_pruning import pruning_trace

    from repro.domains.crypto import build_crypto_layer
    layer = build_crypto_layer(eol=768)
    pruning_trace(layer)  # warm-up (index build)
    return _runs(lambda: pruning_trace(layer), repeat)


def make_pruning_walk(layer) -> Callable[[], int]:
    """A fresh-session pruning walk whose every step really prunes."""
    from repro.core import ExplorationSession

    def walk() -> int:
        session = ExplorationSession(layer, "Block")
        total = 0
        for width in (8, 16, 32, 64, 128):
            session.set_requirement("Width", width)
            total += len(session.candidates())
        return total

    return walk


def overhead_measurements(num_cores: int = 50000, repeat: int = 5,
                          layer=None) -> Dict[str, object]:
    """Time the synthetic pruning walk with and without tracing.

    Returns per-run times for the no-op-recorder baseline and the traced
    walk (recorder cleared between runs), the per-run event count, and
    the min-over-min overhead ratio.
    """
    if layer is None:
        from test_bench_scaling import synthetic_layer
        layer = synthetic_layer(num_cores)
    walk = make_pruning_walk(layer)
    layer.observe(None)
    walk()  # warm-up (index build)
    noop = _runs(walk, repeat)
    recorder = layer.observe()
    traced: List[float] = []
    for _ in range(repeat):
        recorder.clear()
        t0 = time.perf_counter()
        walk()
        traced.append(time.perf_counter() - t0)
    events_per_run = len(recorder.events)
    layer.observe(None)
    return {
        "num_cores": num_cores,
        "noop": noop,
        "traced": traced,
        "events_per_run": events_per_run,
        "ratio": min(traced) / min(noop),
    }


def sanitizer_overhead_measurements(num_cores: int = 50000, repeat: int = 5,
                                    layer=None) -> Dict[str, object]:
    """Time the synthetic pruning walk with and without the runtime
    mutation sanitizer armed.

    The sanitized runs execute with the sanitizer active and the layer
    sealed (seal happens *outside* the timed region, matching the
    worker pool, which seals once at hydration).  The walk is
    read-only, so the measured cost is the sanitizer's tax on the hot
    query path: the ``check_write`` fast path plus the sealed-attribute
    bookkeeping.  Gate: min-over-min ratio < :data:`SANITIZER_BUDGET`.
    """
    from repro.analysis import sanitizer

    if layer is None:
        from test_bench_scaling import synthetic_layer
        layer = synthetic_layer(num_cores)
    walk = make_pruning_walk(layer)
    walk()  # warm-up (index build)
    plain = _runs(walk, repeat)
    with sanitizer.sanitized():
        sanitizer.seal(layer)
        try:
            sanitized = _runs(walk, repeat)
        finally:
            sanitizer.unseal(layer)
    return {
        "num_cores": num_cores,
        "plain": plain,
        "sanitized": sanitized,
        "ratio": min(sanitized) / min(plain),
    }


def explore_measurements(num_cores: int = 50000, repeat: int = 3,
                         jobs: int = 4) -> Dict[str, object]:
    """Time automated exploration on the synthetic exploration layer.

    Records branch counts for exhaustive / branch-and-bound / beam, the
    serial vs ``jobs``-worker process-backed wall times, and the
    frontier digests — which must agree between every configuration.
    The speedup is reported against the CPUs actually available; on a
    single-CPU machine it documents overhead, not a win.
    """
    from test_bench_explore import available_cpus, exploration_problem

    from repro.core.explore import WorkerPool, explore

    problem = exploration_problem(num_cores)
    explore(problem, strategy="exhaustive")  # warm-up (index build)
    full = explore(problem, strategy="exhaustive")
    bnb = explore(problem, strategy="bnb")
    beam = explore(problem, strategy="beam", width=2)
    serial = _runs(lambda: explore(problem, strategy="exhaustive"), repeat)
    parallel_results = []
    pool = None

    def run_parallel():
        parallel_results.append(explore(
            problem, strategy="exhaustive", pool=pool))

    with WorkerPool(jobs=jobs, snapshot=problem.snapshot) as pool:
        pool.warm()
        run_parallel()  # warm workers (snapshot hydration)
        parallel_results.clear()
        parallel = _runs(run_parallel, repeat)
    strategies = (("exhaustive", {}), ("bnb", {}), ("beam", {"width": 2}))
    probes = {method: {strategy: index_calls(problem, method, strategy,
                                             **options)
                       for strategy, options in strategies}
              for method in ("merit_ranges_for", "merit_minima")}
    retained_kb = retained_kb_per_result(problem)
    digests = {full.frontier.digest(), bnb.frontier.digest()}
    digests.update(r.frontier.digest() for r in parallel_results)
    if len(digests) != 1:
        raise AssertionError(
            f"exploration digests diverged across configurations: "
            f"{sorted(digests)}")
    return {
        "num_cores": num_cores,
        "jobs": jobs,
        "cpus": available_cpus(),
        "branches_opened": {
            "exhaustive": full.stats.opened,
            "bnb": bnb.stats.opened,
            "beam": beam.stats.opened,
        },
        "bnb_pruned_by_bound": bnb.stats.pruned.get("bound", 0),
        "range_probes": probes["merit_ranges_for"],
        "bound_probes": probes["merit_minima"],
        "retained_kb_per_result": retained_kb,
        "frontier_size": len(full.frontier),
        "digest": full.frontier.digest(),
        "serial": serial,
        "parallel": parallel,
        "speedup": min(serial) / min(parallel),
    }


def index_calls(problem, method: str, strategy: str, **options) -> int:
    """Calls of ``CoreIndex.<method>`` in one untraced ``explore()``
    walk: a work count, deterministic on any host.  No strategy reads
    an option's ranges (``merit_ranges_for``); each bounds options and
    some terminals by their ideal point (``merit_minima``)."""
    from repro.core.explore import explore
    from repro.core.index import CoreIndex

    original = getattr(CoreIndex, method)
    calls = [0]

    def counting(index, ids, metrics):
        calls[0] += 1
        return original(index, ids, metrics)

    setattr(CoreIndex, method, counting)
    try:
        explore(problem, strategy=strategy, **options)
    finally:
        setattr(CoreIndex, method, original)
    return calls[0]


def retained_kb_per_result(problem, walks: int = 20) -> float:
    """KB of memory an exhaustive ``ExplorationResult`` keeps alive,
    averaged over ``walks`` results held at once (tracemalloc)."""
    import gc
    import tracemalloc

    from repro.core.explore import explore

    explore(problem, strategy="exhaustive")  # warm-up (index build)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        results = [explore(problem, strategy="exhaustive")
                   for _ in range(walks)]
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del results
    grown = sum(stat.size_diff for stat in after.compare_to(before,
                                                            "filename"))
    return grown / walks / 1024


def parallel_scaling_measurements(num_cores: int = 50000, repeat: int = 2,
                                  ) -> Dict[str, object]:
    """Scaling sweep of the snapshot-hydrated worker pool.

    Measures snapshot capture/hydrate cost once, then explores at
    ``jobs`` 1/2/4 on warm persistent pools — chunked (default sizing)
    and per-task (``chunk_size=1``, the old one-branch-per-submit
    shape) at the widest point.  Every sweep's frontier digest must
    match; speedups are min-over-min against the jobs=1 run.
    """
    from test_bench_explore import (
        available_cpus,
        bench_layer,
        exploration_problem,
    )

    from repro.core.explore import WorkerPool, explore

    layer = bench_layer(num_cores)
    t0 = time.perf_counter()
    snapshot = layer.snapshot()
    capture_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    snapshot.hydrate()
    hydrate_s = time.perf_counter() - t0

    problem = exploration_problem(num_cores)
    explore(problem, strategy="exhaustive")  # warm-up (index build)
    sweeps: List[Dict[str, object]] = []
    base_min: Optional[float] = None
    for jobs, chunk_size, dispatch in ((1, None, "serial"),
                                       (2, None, "chunked"),
                                       (4, None, "chunked"),
                                       (4, 1, "per-task")):
        with WorkerPool(jobs=jobs, snapshot=snapshot,
                        chunk_size=chunk_size) as pool:
            if jobs > 1:
                pool.warm()
                explore(problem, pool=pool)  # warm workers (hydration)
            results: List[object] = []
            runs = _runs(lambda: results.append(
                explore(problem, pool=pool)), repeat)
        if base_min is None:
            base_min = min(runs)
        sweeps.append({
            "jobs": jobs,
            "dispatch": dispatch,
            "runs": [round(r, 6) for r in runs],
            "min": round(min(runs), 6),
            "speedup": round(base_min / min(runs), 4),
            "digest": results[-1].frontier.digest(),
        })
    return {
        "num_cores": num_cores,
        "cpus": available_cpus(),
        "snapshot_bytes": snapshot.size_bytes,
        "capture_s": round(capture_s, 6),
        "hydrate_s": round(hydrate_s, 6),
        "sweeps": sweeps,
    }


def parallel_tracing_measurements(num_cores: int = 50000, repeat: int = 3,
                                  jobs: int = 4) -> Dict[str, object]:
    """Distributed-tracing overhead on the parallel 50k-core walk.

    Times the ``jobs``-worker exploration untraced vs traced (workers
    fill span buffers, the engine merges them deterministically), on
    the same warm snapshot-hydrated pool; the min-over-min ratio is the
    CI gate (< :data:`OVERHEAD_BUDGET`).  Also records the merged
    trace's event count, worker-span count, per-branch sampling rate,
    and the canonical digest — which must match across job counts and
    chunk sizes (``test_bench_trace_parallel.py`` pins
    that).
    """
    from test_bench_explore import available_cpus, exploration_problem

    from repro.core.explore import WorkerPool, explore
    from repro.core.obs import WORKER_TASK, canonical_trace_digest

    problem = exploration_problem(num_cores)
    layer = problem.resolve_layer()
    layer.observe(None)
    explore(problem, strategy="exhaustive")  # warm-up (index build)
    with WorkerPool(jobs=jobs, snapshot=problem.snapshot) as pool:
        pool.warm()
        explore(problem, pool=pool)  # warm workers (snapshot hydration)
        untraced = _runs(lambda: explore(problem, pool=pool), repeat)
        recorder = layer.observe()
        traced: List[float] = []
        for _ in range(repeat):
            recorder.clear()
            t0 = time.perf_counter()
            explore(problem, pool=pool)
            traced.append(time.perf_counter() - t0)
        events = list(recorder.events)
        sample_rate = recorder.metrics.gauge("dsl_trace_sample_rate").value
        layer.observe(None)
    return {
        "num_cores": num_cores,
        "jobs": jobs,
        "cpus": available_cpus(),
        "untraced": untraced,
        "traced": traced,
        "events_per_run": len(events),
        "worker_spans": sum(1 for e in events if e.kind == WORKER_TASK),
        "sample_rate": sample_rate,
        "canonical_digest": canonical_trace_digest(events),
        "ratio": min(traced) / min(untraced),
    }


def verify_measurements(num_cores: int = 5000, repeat: int = 5
                        ) -> Dict[str, object]:
    """Time the semantic verifier on a synthetic layer.

    Cold analyses drop the epoch cache between runs; warm runs re-verify
    the unchanged layer and must be served from the cache — the
    ``warm_over_cold`` ratio is the CI gate (< :data:`VERIFY_WARM_BUDGET`).
    """
    from test_bench_scaling import synthetic_layer

    from repro.core.verify import analyze_layer
    from repro.core.verify.engine import _CACHE

    layer = synthetic_layer(num_cores)
    analyze_layer(layer)  # warm-up (index build)

    def cold() -> object:
        _CACHE.pop(layer, None)
        return analyze_layer(layer)

    cold_runs = _runs(cold, repeat)
    analysis = analyze_layer(layer)
    warm_runs = _runs(lambda: analyze_layer(layer), repeat)
    return {
        "num_cores": num_cores,
        "cold": cold_runs,
        "warm": warm_runs,
        "proofs": len(analysis.proofs),
        "regions": len(analysis.regions),
        "ratio": min(warm_runs) / min(cold_runs),
    }


def serving_measurements(num_cores: int = 50000, sessions: int = 64
                         ) -> Dict[str, object]:
    """Drive the HTTP service-layer load benchmark once.

    A real :class:`~repro.serve.DesignSpaceServer` on an ephemeral port
    serves ``sessions`` concurrent client walks over the ``num_cores``
    synthetic layer; returns request percentiles, batching counters and
    the two oracles (per-session digests + stateless served bytes).
    """
    from test_bench_serving import (
        run_serving_load,
        start_server,
        stateless_oracle_checks,
        stop_server,
        synthetic_layer,
    )

    layer = synthetic_layer(num_cores)
    service, server, thread = start_server(layer)
    try:
        diverged = stateless_oracle_checks(server.url, layer)
        load = run_serving_load(server.url, layer, sessions=sessions)
        leads = service.metrics.counter(
            "dsl_prune_batch_leads_total").value
        hits = service.metrics.counter(
            "dsl_prune_batch_hits_total").value
        coalesced = service.metrics.counter(
            "dsl_prune_batch_coalesced_total").value
    finally:
        stop_server(service, server, thread)
    return {
        "num_cores": num_cores,
        "sessions": sessions,
        "requests": load["requests"],
        "p50": load["p50"],
        "p95": load["p95"],
        "p99": load["p99"],
        "digest_ok": load["digest_ok"] and not diverged,
        "stateless_diverged": diverged,
        "batch_leads": leads,
        "batch_hits": hits,
        "batch_coalesced": coalesced,
    }


def collect_serving(num_cores: int, sessions: int) -> Dict[str, object]:
    from test_bench_explore import available_cpus

    serving = serving_measurements(num_cores, sessions)
    cpus = available_cpus()
    return {
        "generated": time.strftime("%Y-%m-%d"),
        "command": ("PYTHONPATH=src python benchmarks/record.py "
                    "--serving-only"),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or "unknown",
            "cpus": cpus,
        },
        "serving": {
            "num_cores": serving["num_cores"],
            "sessions": serving["sessions"],
            "requests": serving["requests"],
            "latency_seconds": {
                "p50": round(serving["p50"], 6),
                "p95": round(serving["p95"], 6),
                "p99": round(serving["p99"], 6),
            },
            "prune_batching": {
                "leads": serving["batch_leads"],
                "hits": serving["batch_hits"],
                "coalesced": serving["batch_coalesced"],
            },
            "digest_ok": serving["digest_ok"],
            "p95_budget": SERVING_P95_BUDGET,
            "budget_enforced": cpus >= 4,
            "within_budget": serving["p95"] < SERVING_P95_BUDGET,
        },
    }


def collect(repeat: int, num_cores: int) -> Dict[str, object]:
    from test_bench_explore import available_cpus

    crypto = crypto_walk_runs(repeat)
    overhead = overhead_measurements(num_cores, repeat)
    sanitizer = sanitizer_overhead_measurements(num_cores, repeat)
    exploration = explore_measurements(num_cores, max(repeat - 2, 1))
    scaling = parallel_scaling_measurements(
        num_cores, max(repeat - 3, 2))
    tracing = parallel_tracing_measurements(num_cores, max(repeat - 2, 2))
    verify = verify_measurements(min(num_cores, 5000), repeat)
    return {
        "generated": time.strftime("%Y-%m-%d"),
        "command": "PYTHONPATH=src python benchmarks/record.py",
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or "unknown",
            "cpus": available_cpus(),
        },
        "benchmarks": {
            "crypto_case_study_walk": _summary(crypto),
            f"synthetic_{num_cores}_noop": _summary(overhead["noop"]),
            f"synthetic_{num_cores}_traced": dict(
                _summary(overhead["traced"]),
                events_per_run=overhead["events_per_run"]),
        },
        "tracing_overhead": {
            "ratio_min_over_min": round(overhead["ratio"], 4),
            "budget": OVERHEAD_BUDGET,
            "within_budget": overhead["ratio"] < OVERHEAD_BUDGET,
        },
        "sanitizer_overhead": {
            "num_cores": sanitizer["num_cores"],
            "plain": _summary(sanitizer["plain"]),
            "sanitized": _summary(sanitizer["sanitized"]),
            "ratio_min_over_min": round(sanitizer["ratio"], 4),
            "budget": SANITIZER_BUDGET,
            "within_budget": sanitizer["ratio"] < SANITIZER_BUDGET,
        },
        "exploration": {
            "num_cores": exploration["num_cores"],
            "jobs": exploration["jobs"],
            "cpus": exploration["cpus"],
            "branches_opened": exploration["branches_opened"],
            "bnb_pruned_by_bound": exploration["bnb_pruned_by_bound"],
            "range_probes": exploration["range_probes"],
            "retained_kb_per_result": round(
                exploration["retained_kb_per_result"], 1),
            "frontier_size": exploration["frontier_size"],
            "digest": exploration["digest"],
            "serial": _summary(exploration["serial"]),
            f"parallel_jobs{exploration['jobs']}": _summary(
                exploration["parallel"]),
            "speedup_min_over_min": round(exploration["speedup"], 4),
        },
        "parallel_scaling": scaling,
        "parallel_tracing": {
            "num_cores": tracing["num_cores"],
            "jobs": tracing["jobs"],
            "cpus": tracing["cpus"],
            "untraced": _summary(tracing["untraced"]),
            "traced": dict(_summary(tracing["traced"]),
                           events_per_run=tracing["events_per_run"],
                           worker_spans=tracing["worker_spans"]),
            "sample_rate": tracing["sample_rate"],
            "canonical_digest": tracing["canonical_digest"],
            "ratio_min_over_min": round(tracing["ratio"], 4),
            "budget": OVERHEAD_BUDGET,
            "within_budget": tracing["ratio"] < OVERHEAD_BUDGET,
        },
        "verify": {
            "num_cores": verify["num_cores"],
            "proofs": verify["proofs"],
            "regions": verify["regions"],
            "cold": _summary(verify["cold"]),
            "warm_epoch_cache": _summary(verify["warm"]),
            "warm_over_cold": round(verify["ratio"], 6),
            "budget": VERIFY_WARM_BUDGET,
            "within_budget": verify["ratio"] < VERIFY_WARM_BUDGET,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON record")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per benchmark (min and mean recorded)")
    parser.add_argument("--cores", type=int, default=50000,
                        help="synthetic library size for the overhead walk")
    parser.add_argument("--serving-only", action="store_true",
                        help="record only the service-layer load "
                             "benchmark into --serving-output")
    parser.add_argument("--serving-output", default=DEFAULT_SERVING_OUTPUT,
                        help="where to write the serving JSON record")
    parser.add_argument("--sessions", type=int, default=64,
                        help="concurrent sessions for the serving load")
    args = parser.parse_args(argv)
    if args.serving_only:
        record = collect_serving(args.cores, args.sessions)
        with open(args.serving_output, "w", encoding="utf-8") as fp:
            json.dump(record, fp, indent=2, sort_keys=True)
            fp.write("\n")
        serving = record["serving"]
        p95 = serving["latency_seconds"]["p95"]
        print(f"wrote {os.path.normpath(args.serving_output)} "
              f"({serving['sessions']} sessions, p95 {p95:.3f}s, "
              f"digest {'ok' if serving['digest_ok'] else 'DIVERGED'})")
        if not serving["digest_ok"]:
            return 1
        if serving["budget_enforced"] and not serving["within_budget"]:
            return 1
        return 0
    record = collect(args.repeat, args.cores)
    with open(args.output, "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=2, sort_keys=True)
        fp.write("\n")
    ratio = record["tracing_overhead"]["ratio_min_over_min"]
    print(f"wrote {os.path.normpath(args.output)} "
          f"(tracing overhead x{ratio:.3f}, budget x{OVERHEAD_BUDGET})")
    return 0 if record["tracing_overhead"]["within_budget"] else 1


if __name__ == "__main__":
    sys.exit(main())
