"""Static concurrency/invariant analysis over the repo's own source.

Four passes — shared-state race detection (DSA001/DSA002), epoch-bump
verification (DSA010/DSA011), deadlock detection over the
lock-acquisition graph (DSA030–DSA032) and digest-path determinism
(DSA040–DSA043) — plus a suppression audit (DSA003/DSA004), driven by
the reified concurrency contract in :mod:`repro.analysis.contract`.

This ``__init__`` is deliberately lazy (PEP 562): importing the package
loads no pass until one of its names is read.
"""

from __future__ import annotations

import importlib
from typing import Any, List

_EXPORTS = {
    # model
    "Finding": "repro.analysis.model",
    "AnalysisReport": "repro.analysis.model",
    "merge_findings": "repro.analysis.model",
    # registry
    "AnalysisRule": "repro.analysis.registry",
    "AnalysisRegistry": "repro.analysis.registry",
    "AnalysisConfig": "repro.analysis.registry",
    "DEFAULT_REGISTRY": "repro.analysis.registry",
    "CATEGORIES": "repro.analysis.registry",
    # contract
    "ConcurrencyContract": "repro.analysis.contract",
    "EpochContract": "repro.analysis.contract",
    "DEFAULT_CONTRACT": "repro.analysis.contract",
    # engine
    "analyze_paths": "repro.analysis.engine",
    "analyze_package": "repro.analysis.engine",
    "lock_graph_paths": "repro.analysis.engine",
    "lock_graph_package": "repro.analysis.engine",
    # deadlock pass (the lock graph is a public artifact: CI asserts
    # over it and the CLI renders it)
    "LockGraph": "repro.analysis.deadlock",
    "LockNode": "repro.analysis.deadlock",
    "LockEdge": "repro.analysis.deadlock",
    "build_lock_graph": "repro.analysis.deadlock",
    "find_deadlocks": "repro.analysis.deadlock",
    # determinism pass
    "check_determinism": "repro.analysis.determinism",
    # inventory (for tests / tooling built on the model)
    "ProjectModel": "repro.analysis.inventory",
    "build_model": "repro.analysis.inventory",
    "collect_files": "repro.analysis.inventory",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(target), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
