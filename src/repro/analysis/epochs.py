"""Epoch-bump verifier (DSA010/DSA011).

Every epoch-keyed cache in the repo (the federation's core index and
the layer's memo of CDO resolution, applicable constraints and verify
results) trusts one invariant: *a store never changes without its epoch moving*.  The
contract's :class:`~repro.analysis.contract.EpochContract` entries pin
down, per class, which attributes are the stores and what counts as the
paired invalidation.

Two classes own a counter (``LibraryFederation`` and
``DesignSpaceLayer``, moved by ``_bump()``); ``DesignObject``,
``ReuseLibrary``, ``ClassOfDesignObjects`` and ``ConstraintSet`` keep
none and push each change on to the counters that index them.  Either
way, a method that writes a store must call a bump method or increment
the counter in the same body, else **DSA010**.
Re-*assigning* the counter outside ``__init__`` breaks monotonicity —
a rebound counter can collide with an epoch a cache already keyed — so
that is **DSA011** regardless of store writes.
"""

from __future__ import annotations

from typing import List

from repro.analysis.contract import ConcurrencyContract, EpochContract
from repro.analysis.inventory import ClassInfo, ProjectModel
from repro.analysis.model import Finding
from repro.analysis.registry import EPOCH_COUNTER_REBOUND, MISSING_EPOCH_BUMP


def _check_class(ec: EpochContract, cls: ClassInfo, path: str,
                 findings: List[Finding]) -> None:
    for method_name in sorted(cls.methods):
        fn = cls.methods[method_name]
        in_init = method_name == "__init__"

        # DSA011: counter rebound anywhere outside __init__
        if not in_init:
            for write in fn.self_writes:
                if write.target in ec.epoch_attrs and write.kind == "assign":
                    findings.append(EPOCH_COUNTER_REBOUND.make(
                        path, write.lineno, fn.qualname,
                        f"epoch counter {write.target!r} is re-assigned "
                        f"outside __init__; epochs must only increment",
                        hint=f"use 'self.{write.target} += 1' so every "
                             f"cache keyed by an old epoch stays stale"))

        if in_init or method_name in ec.bump_methods:
            continue
        store_writes = [w for w in fn.self_writes if w.target in ec.stores]
        if not store_writes:
            continue

        bumped = any(b in fn.self_calls for b in ec.bump_methods) or \
            any(attr in fn.self_augassigns for attr in ec.epoch_attrs)
        if bumped:
            continue
        for write in store_writes:
            bump_desc = " or ".join(
                [f"{b}()" for b in ec.bump_methods]
                + [f"{a} += 1" for a in ec.epoch_attrs])
            findings.append(MISSING_EPOCH_BUMP.make(
                path, write.lineno, fn.qualname,
                f"store {write.target!r} of {ec.class_name} is "
                f"mutated without the paired epoch invalidation",
                hint=f"pair the write with {bump_desc} so epoch-keyed "
                     f"caches invalidate"))


def check_epochs(model: ProjectModel,
                 contract: ConcurrencyContract) -> List[Finding]:
    findings: List[Finding] = []
    for ec in contract.epoch_contracts:
        for module in model.modules.values():
            cls = module.classes.get(ec.class_name)
            if cls is not None:
                _check_class(ec, cls, module.path, findings)
    return findings
