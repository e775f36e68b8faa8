"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore-serial --seed 1 \
        --seconds 45 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the
length the bounds there were measured at.
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints every per-layer metric.
Human-readable lines (environment, counts, notes, one line per metric
with its unit) come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import paths

paths.use_repo_source()

WORKLOADS = ("explore-serial", "serve-unique")


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    with open(paths.ROOT / "BENCHMARK.json", encoding="utf-8") as src:
        spec = json.load(src)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if trace else "end_to_end"]}
    env = environment(args.seed)
    print("env:", json.dumps(env, sort_keys=True), flush=True)

    if args.workload == "explore-serial":
        import explore_workloads as workloads
    else:
        import serve_workloads as workloads
    result = workloads.run(args.workload, args.seed, args.seconds, trace)

    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise SystemExit(f"perfbench: workload produced no {missing}")
    for note in result.notes:
        print(note)
    fail_ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"attempted: {result.attempted}  failed: {result.failed}  "
          f"fail_ratio: {fail_ratio:g}")
    for name, unit in units.items():
        print(f"{name:34s} {result.metrics[name]:14.4f} {unit}")
    print("loadavg at end:", [round(x, 2) for x in os.getloadavg()])
    print(json.dumps({
        "correct": result.attempted > 0 and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
