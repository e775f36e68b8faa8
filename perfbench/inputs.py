"""Benchmark inputs: two 50k-core layers, walk stream, state draws.

The benchmark owns these generators instead of importing them from
``benchmarks/`` or ``repro.testing``, so an edit there cannot silently
change a workload.  The layers themselves are fixed (no seed): every
explore walk must reach the same frontier, ``EXPLORE_DIGEST``.  Only the
explore walk stream and the serve state draws depend on ``--seed``.

The serving layer and the state draws are imported by both the server
child (``server.py``) and the client's in-process oracle
(``serve_workloads.py``), which is what keeps the two identical.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.core import (
    ClassOfDesignObjects,
    DesignIssue,
    DesignObject,
    DesignSpaceLayer,
    EnumDomain,
    ExplorationSession,
    IntRange,
    Requirement,
    RequirementSense,
    ReuseLibrary,
)

NUM_CORES = 50000
FAMILIES = 8
METRICS = ("area", "latency_ns")

#: Frontier digest every explore walk must produce (any Width in 9..16
#: keeps exactly the cores of width >= 16, so the work is identical).
EXPLORE_DIGEST = "730389f4139eff59"
EXPLORE_TERMINALS = 256
EXPLORE_OUTCOMES = 40000
EXPLORE_WIDTHS = (9, 16)

#: Serving walk state: (Width requirement, Family option, Variant option).
State = Tuple[int, str, str]
SERVE_START = "Block"
UNIQUE_WIDTHS = (1, 128)
VARIANTS = ("v0", "v1", "v2", "v3")


def _root(name: str, doc: str) -> ClassOfDesignObjects:
    root = ClassOfDesignObjects(name, doc)
    root.add_property(Requirement(
        "Width", IntRange(1), "width",
        sense=RequirementSense.AT_LEAST_SUPPORT))
    root.add_property(DesignIssue(
        "Family", EnumDomain([f"f{i}" for i in range(FAMILIES)]),
        "family split", generalized=True))
    return root


def explore_layer() -> DesignSpaceLayer:
    """Three issues below a generalized family split, with a dominance
    gradient: each later family is strictly worse on both metrics."""
    layer = DesignSpaceLayer("explore-bench",
                             f"synthetic exploration layer, {NUM_CORES} cores")
    root = _root("Design", "synthetic design family")
    layer.add_root(root)
    for i in range(FAMILIES):
        child = root.specialize(f"f{i}")
        child.add_property(DesignIssue(
            "Pipeline", EnumDomain([1, 2, 4, 8]), "pipeline depth"))
        child.add_property(DesignIssue(
            "Unroll", EnumDomain([1, 2, 4, 8]), "unroll factor"))
        child.add_property(DesignIssue(
            "Banks", EnumDomain([1, 2]), "memory banks"))
    library = ReuseLibrary("explore-bench", "generated cores")
    for i in range(NUM_CORES):
        family = i % FAMILIES
        library.add(DesignObject(
            f"core{i}", f"Design.f{family}",
            {"Pipeline": 1 << ((i // 8) % 4),
             "Unroll": 1 << ((i // 32) % 4),
             "Banks": 1 + ((i // 128) % 2),
             "Width": 8 << (i % 5)},
            {"area": 100.0 + 700.0 * family + (i * 37) % 500,
             "latency_ns": 1.0 + 50.0 * family + (i * 61) % 300}))
    layer.attach_library(library)
    layer.validate()
    return layer


def serving_layer() -> DesignSpaceLayer:
    """One generalized family split with a four-way Variant issue below."""
    layer = DesignSpaceLayer("scale", f"synthetic layer, {NUM_CORES} cores")
    root = _root(SERVE_START, "synthetic block family")
    layer.add_root(root)
    for i in range(FAMILIES):
        child = root.specialize(f"f{i}")
        child.add_property(DesignIssue(
            "Variant", EnumDomain(list(VARIANTS)), "variant"))
    library = ReuseLibrary("synthetic", "generated cores")
    for i in range(NUM_CORES):
        library.add(DesignObject(
            f"core{i}", f"{SERVE_START}.f{i % FAMILIES}",
            {"Variant": VARIANTS[i % 4], "Width": 8 << (i % 5)},
            {"area": 100.0 + i, "latency_ns": 1.0 + (i % 97)}))
    layer.attach_library(library)
    layer.validate()
    return layer


def explore_widths(seed: int) -> Iterator[int]:
    """Endless stream of per-walk Width requirements in 9..16."""
    rng = random.Random(f"explore-widths:{seed}")
    while True:
        yield rng.randint(*EXPLORE_WIDTHS)


def unique_states(seed: int) -> Iterator[State]:
    """Every (Width 1..128, Family, Variant) state once, in seeded order."""
    low, high = UNIQUE_WIDTHS
    states: List[State] = [(w, f"f{f}", v) for w in range(low, high + 1)
                           for f in range(FAMILIES) for v in VARIANTS]
    random.Random(f"unique-states:{seed}").shuffle(states)
    return iter(states)


def replay_digest(layer: DesignSpaceLayer, state: State) -> str:
    """The prune digest a served walk must report for ``state``,
    computed with a direct in-process session."""
    width, family, variant = state
    session = ExplorationSession(layer, SERVE_START)
    session.set_requirement("Width", width)
    session.decide("Family", family)
    session.decide("Variant", variant)
    return session.prune_report().digest()
