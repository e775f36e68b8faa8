"""Smoke check of every workload, untraced and traced (about half a minute)::

    python3 -m pytest perfbench -q

Each run is two seconds long: enough to show that every metric of
``BENCHMARK.json`` is printed with its unit and that nothing failed, not
to measure anything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Per-layer metrics that must read above 0, by the workloads they apply to.
_EVERYWHERE = (
    "index.prune_ids.calls", "index.prune_ids.ms",
    "index.requirement_ids.calls", "index.requirement_ids.ms",
    "index.decision_ids.ms", "index.merit_ranges_for.ms", "index.self_ms",
    "session.available_options.ms", "session.decide.ms",
    "trace.overhead_ratio", "trace.uncovered_share")
_EXPLORE = _EVERYWHERE + (
    "session.prune_report.calls", "explore.terminal.ms",
    "explore.frontier_add.calls", "explore.frontier_add.ms",
    "explore.frontier.admit_ratio", "explore.self_ms")
_SERVE = _EVERYWHERE + tuple(
    f"serve.handle.{verb}.ms"
    for verb in ("open", "require", "decide", "options", "report", "close")
) + ("serve.codec.ms", "serve.http.overhead_ms",
     "serve.batcher.evaluate.ms", "serve.batcher.hit_ratio",
     "serve.sessions.max_active", "serve.self_ms")
APPLIES = {
    "explore-serial": _EXPLORE,
    "serve-unique": _SERVE + ("session.prune_report.calls",),
}


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_printed(lines, result, metrics) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any("fail_ratio: 0" in line for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    lines, result = run(workload, trace=0)
    check_printed(lines, result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    lines, result = run(workload, trace=1)
    check_printed(lines, result, SPEC["per_layer"])
    zero = [name for name in APPLIES[workload]
            if not result["metrics"][name]["value"] > 0]
    assert zero == [], f"{workload}: per-layer metrics read 0: {zero}"
