#!/usr/bin/env python
"""Record pruning/observability timings into a committed JSON file.

``BENCH_pruning.json`` (repo root) is the durable record of:

* the crypto case-study pruning walk (the paper's Sec 5 loop) — per-run
  wall times on the recording machine;
* the tracing overhead on a 50k-core synthetic pruning walk — the
  no-op-recorder baseline vs the same walk with a
  :class:`~repro.core.obs.recorder.TraceRecorder` attached, plus the
  median per-pair ratio the CI overhead gate enforces (< 1.10);
* exploration of the crypto case study on one prebuilt layer —
  exhaustive and branch-and-bound, with and without the estimator: wall
  times and ``relation_evaluations`` (consistency-constraint relations
  evaluated in one walk, a host-independent count);
* exploration on the 50k synthetic layer — serial exhaustive wall times;
  next to the timings, host-independent counts: ``range_probes``
  (option-range computations in one walk per strategy), ``bound_probes``
  (ideal-point computations in one walk per strategy), ``frontier_adds``
  (outcomes offered to the frontier in one walk per strategy),
  ``session_decides`` (session decisions in one walk per strategy),
  ``terminal_prunes`` (session prunes in one untraced walk per strategy)
  and ``retained_kb_per_result`` (memory one kept result holds);
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
    the overhead ratio: the median over pairs of traced / untraced time.
    Untraced and traced runs alternate, one pair at a time, so drift on
    the host lands on both sides of each pair's ratio.  The walk's time
    is bimodal within one process, so a ratio of minima would turn on
    which side caught a single fast run; the median pair does not.
    """
    if layer is None:
        from test_bench_scaling import synthetic_layer
        layer = synthetic_layer(num_cores)
    walk = make_pruning_walk(layer)
    recorder = layer.observe()
    layer.observe(None)
    walk()  # warm-up (index build)
    noop: List[float] = []
    traced: List[float] = []
    for _ in range(repeat):
        layer.observe(None)
        noop.extend(_runs(walk, 1))
        layer.observe(recorder)
        recorder.clear()
        traced.extend(_runs(walk, 1))
    events_per_run = len(recorder.events)
    layer.observe(None)
    return {
        "num_cores": num_cores,
        "noop": noop,
        "traced": traced,
        "events_per_run": events_per_run,
        "ratio": statistics.median(t / n for n, t in zip(noop, traced)),
    }


def explore_measurements(num_cores: int = 50000, repeat: int = 3
                         ) -> Dict[str, object]:
    """Time automated exploration on the synthetic exploration layer.

    Records branch counts for exhaustive / branch-and-bound, the
    serial exhaustive wall times, and the frontier digests — which must
    agree between exhaustive and branch-and-bound.
    """
    from test_bench_explore import available_cpus, exploration_problem

    from repro.core import ExplorationSession
    from repro.core.explore import ParetoFrontier, explore
    from repro.core.index import CoreIndex

    problem = exploration_problem(num_cores)
    explore(problem, strategy="exhaustive")  # warm-up (index build)
    full = explore(problem, strategy="exhaustive")
    bnb = explore(problem, strategy="bnb")
    serial = _runs(lambda: explore(problem, strategy="exhaustive"), repeat)
    probes = {method: {strategy: walk_calls(owner, method, problem, strategy)
                       for strategy in ("exhaustive", "bnb")}
              for owner, method in ((CoreIndex, "merit_ranges_for"),
                                    (CoreIndex, "merit_minima"),
                                    (ParetoFrontier, "add"),
                                    (ExplorationSession, "decide"),
                                    (ExplorationSession, "prune_report"))}
    retained_kb = retained_kb_per_result(problem)
    digests = {full.frontier.digest(), bnb.frontier.digest()}
    if len(digests) != 1:
        raise AssertionError(
            f"exploration digests diverged across configurations: "
            f"{sorted(digests)}")
    return {
        "num_cores": num_cores,
        "cpus": available_cpus(),
        "branches_opened": {
            "exhaustive": full.stats.opened,
            "bnb": bnb.stats.opened,
        },
        "bnb_pruned_by_bound": bnb.stats.pruned.get("bound", 0),
        "range_probes": probes["merit_ranges_for"],
        "bound_probes": probes["merit_minima"],
        "frontier_adds": probes["add"],
        "session_decides": probes["decide"],
        "terminal_prunes": probes["prune_report"],
        "retained_kb_per_result": retained_kb,
        "frontier_size": len(full.frontier),
        "digest": full.frontier.digest(),
        "serial": serial,
    }


#: The crypto exploration configurations: (strategy, with_estimator).
CRYPTO_WALKS = (("exhaustive", False), ("bnb", False),
                ("exhaustive", True), ("bnb", True))


def crypto_exploration_measurements(repeat: int = 9) -> Dict[str, object]:
    """Time the crypto case-study exploration on one prebuilt layer.

    Each configuration of :data:`CRYPTO_WALKS` is warmed up once and then
    walked ``repeat`` times; next to the times it records how many
    consistency-constraint relations one walk evaluates.  The frontier
    digest must agree across the configurations.
    """
    from test_bench_explore import available_cpus

    from repro.core.explore import explore
    from repro.core.relations import (EliminateOptions, EstimatorInvocation,
                                      Formula, InconsistentOptions)
    from repro.domains.crypto import (build_crypto_layer,
                                      crypto_exploration_problem)

    relations = (EliminateOptions, EstimatorInvocation, Formula,
                 InconsistentOptions)
    layer = build_crypto_layer(eol=768)
    walks: Dict[str, object] = {}
    digests = set()
    for strategy, with_estimator in CRYPTO_WALKS:
        problem = crypto_exploration_problem(
            layer=layer, with_estimator=with_estimator)
        digests.add(explore(problem, strategy=strategy).frontier.digest())
        name = strategy + ("+estimator" if with_estimator else "")
        walks[name] = dict(
            _summary(_runs(lambda: explore(problem, strategy=strategy),
                           repeat)),
            relation_evaluations=walk_calls(relations, "evaluate", problem,
                                            strategy))
    if len(digests) != 1:
        raise AssertionError(
            f"crypto exploration digests diverged: {sorted(digests)}")
    return {"eol": 768, "cpus": available_cpus(),
            "digest": digests.pop(), "walks": walks}


def walk_calls(owners, method: str, problem, strategy: str) -> int:
    """Calls of ``<owner>.<method>`` in one untraced ``explore()`` walk,
    summed over ``owners`` (a class or a tuple of classes): a work count,
    deterministic on any host.  No strategy reads an
    option's ranges (``CoreIndex.merit_ranges_for``); each bounds options
    and some terminals by their ideal point (``CoreIndex.merit_minima``);
    ``ParetoFrontier.add`` counts the outcomes a walk builds and offers;
    ``ExplorationSession.decide`` the decisions it takes through the
    session rather than counting them from bitmasks;
    ``ExplorationSession.prune_report`` the positions it prunes: a live
    terminal offers the candidates of the option that led there, so
    untraced only a terminal no option led to prunes."""
    from repro.core.explore import explore

    owners = owners if isinstance(owners, tuple) else (owners,)
    originals = {owner: getattr(owner, method) for owner in owners}
    calls = [0]

    def counting(original):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)
        return wrapper

    for owner, original in originals.items():
        setattr(owner, method, counting(original))
    try:
        explore(problem, strategy=strategy)
    finally:
        for owner, original in originals.items():
            setattr(owner, method, original)
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


def verify_measurements(num_cores: int = 5000, repeat: int = 5
                        ) -> Dict[str, object]:
    """Time the semantic verifier on a synthetic layer.

    Cold analyses start each run at a fresh layer epoch, so the layer memo
    is empty; warm runs re-verify
    the unchanged layer and must be served from the cache — the
    ``warm_over_cold`` ratio is the CI gate (< :data:`VERIFY_WARM_BUDGET`).
    """
    from test_bench_scaling import synthetic_layer

    from repro.core.verify import analyze_layer

    layer = synthetic_layer(num_cores)
    analyze_layer(layer)  # warm-up (index build)

    def cold() -> object:
        layer._bump()  # a fresh epoch: the memo starts empty
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


def exploration_record(exploration: Dict[str, object]) -> Dict[str, object]:
    """The ``exploration`` record of :func:`explore_measurements`."""
    return dict(exploration,
                retained_kb_per_result=round(
                    exploration["retained_kb_per_result"], 1),
                serial=_summary(exploration["serial"]))


def collect(repeat: int, num_cores: int) -> Dict[str, object]:
    from test_bench_explore import available_cpus

    crypto = crypto_walk_runs(repeat)
    crypto_exploration = crypto_exploration_measurements(max(repeat, 9))
    overhead = overhead_measurements(num_cores, repeat)
    exploration = explore_measurements(num_cores, max(repeat - 2, 1))
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
            "ratio_median_of_pairs": round(overhead["ratio"], 4),
            "budget": OVERHEAD_BUDGET,
            "within_budget": overhead["ratio"] < OVERHEAD_BUDGET,
        },
        "crypto_exploration": crypto_exploration,
        "exploration": exploration_record(exploration),
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
    ratio = record["tracing_overhead"]["ratio_median_of_pairs"]
    print(f"wrote {os.path.normpath(args.output)} "
          f"(tracing overhead x{ratio:.3f}, budget x{OVERHEAD_BUDGET})")
    return 0 if record["tracing_overhead"]["within_budget"] else 1


if __name__ == "__main__":
    sys.exit(main())
