"""Snapshot-immutability checker (DSA020/DSA021).

A hydrated layer — one obtained from ``LayerSnapshot.hydrate()``, the
per-process ``_LayerCache``, or the ``_worker_layer`` dispatcher — is
shared across every task a worker runs.  Worker-side code may *read*
it freely; writing to it corrupts every sibling task's view and
invalidates nothing.

The pass tracks, inside each worker-reachable function, which locals
were assigned from a hydration source (including the first element of a
tuple unpack), then flags:

* **DSA020** — calling a representation mutator (``add_root``,
  ``attach``, ``set_property``, ...) on such a local;
* **DSA021** — calling ``observe(...)`` on one: installing a trace
  recorder hands a single-owner object to concurrent tasks, which the
  contract forbids outright.

This is lexical and local by design: aliases that escape the function
are the runtime sanitizer's job (``DSL_SANITIZE=1`` seals hydrated
layers so any missed mutation becomes a hard
:class:`~repro.errors.SanitizerError`).
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.contract import ConcurrencyContract
from repro.analysis.inventory import FunctionInfo, ProjectModel
from repro.analysis.model import Finding
from repro.analysis.registry import (RECORDER_INSTALLED_IN_WORKER,
                                     WORKER_MUTATES_HYDRATED_LAYER)


def _hydrated_locals(fn: FunctionInfo,
                     contract: ConcurrencyContract) -> Set[str]:
    out: Set[str] = set()
    for assign in fn.local_call_assigns:
        if assign.kind == "name" and \
                assign.callee in contract.hydration_functions:
            out.add(assign.local)
        elif assign.kind == "attr" and \
                assign.callee in contract.hydration_methods:
            out.add(assign.local)
        elif assign.kind == "chain" and \
                assign.callee in contract.hydration_chains:
            out.add(assign.local)
    return out


def check_snapshots(model: ProjectModel,
                    contract: ConcurrencyContract) -> List[Finding]:
    findings: List[Finding] = []
    reachable = model.reachable(contract)
    for qualname in sorted(reachable):
        fn = model.functions.get(qualname)
        if fn is None:
            continue
        hydrated = _hydrated_locals(fn, contract)
        if not hydrated:
            continue
        module = model.modules[fn.module]
        for call in fn.calls:
            if call.kind != "attr" or call.base not in hydrated:
                continue
            if call.name == "observe":
                findings.append(RECORDER_INSTALLED_IN_WORKER.make(
                    module.path, call.lineno, fn.qualname,
                    f"worker code installs a recorder on hydrated layer "
                    f"{call.base!r}; TraceRecorder is single-owner",
                    hint="emit into the task's WorkerTraceBuffer (the "
                         "problem's TraceContext) instead of observing "
                         "the shared hydrated copy"))
            elif call.name in contract.layer_mutators:
                findings.append(WORKER_MUTATES_HYDRATED_LAYER.make(
                    module.path, call.lineno, fn.qualname,
                    f"worker code calls mutator '{call.name}' on hydrated "
                    f"layer {call.base!r} shared across tasks",
                    hint="hydrated layers are frozen; copy or rebuild "
                         "before mutating (the sanitizer enforces this at "
                         "runtime under DSL_SANITIZE=1)"))
    return findings
