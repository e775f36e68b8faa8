"""Randomized design-space scenario generators.

Two layer shapes, promoted from the private helpers in
``tests/test_explore_strategies.py`` and ``tests/test_index_equivalence.py``:

* :func:`random_hierarchy_layer` — a random *generalization hierarchy*
  (random family fan-out, random issues per family, random option
  counts), the shape that stresses strategy equivalence and branch
  fan-out in the exploration engine;
* :func:`random_core_population_layer` — a fixed three-family hierarchy
  over a random *core population* (under-documented properties, missing
  merits, several libraries), the shape that stresses indexed-vs-naive
  pruning equivalence and federation-order determinism.

Both are deterministic in their seed, so a failing stress run reproduces
from the seed alone.  :func:`dominance_gradient_layer` is the fixed
shape the exploration benchmarks and tests walk at scale.
:func:`random_exploration_problem` wraps a random hierarchy into a
ready-to-run exploration problem.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.core.cdo import ClassOfDesignObjects
from repro.core.designobject import DesignObject
from repro.core.explore.problem import ExplorationProblem
from repro.core.layer import DesignSpaceLayer
from repro.core.library import ReuseLibrary
from repro.core.properties import DesignIssue, Requirement, RequirementSense
from repro.core.values import EnumDomain, IntRange

#: Fixed vocabularies for the core-population shape (kept identical to
#: the original test helper so historical seeds stay reproducible).
FAMILIES: Tuple[str, ...] = ("f0", "f1", "f2")
VARIANTS: Tuple[str, ...] = ("v0", "v1", "v2", "v3")
TECHS: Tuple[str, ...] = ("t35", "t70")

DEFAULT_METRICS: Tuple[str, ...] = ("area", "latency_ns")


def random_hierarchy_layer(seed: int) -> DesignSpaceLayer:
    """A small random generalization hierarchy with a random library.

    Shape: a root with a generalized family issue over 2–3 families;
    each family specializes the root and adds 1–2 enum issues of 2–3
    options; each family gets 2–5 cores whose decisions are drawn from
    its issues and whose merits are ``area`` (always) and ``latency_ns``
    (80% of cores — some must omit a metric to exercise missing-merit
    policies).
    """
    rng = random.Random(seed)
    layer = DesignSpaceLayer(f"rand-{seed}", "randomized hierarchy layer")
    root = ClassOfDesignObjects("R", "root")
    families = [f"f{i}" for i in range(rng.randint(2, 3))]
    root.add_property(DesignIssue(
        "G", EnumDomain(families), "family", generalized=True))
    layer.add_root(root)
    issue_options: Dict[str, Dict[str, List[int]]] = {}
    for family in families:
        child = root.specialize(family)
        for i in range(rng.randint(1, 2)):
            name = f"I{i}"
            options = list(range(rng.randint(2, 3)))
            issue_options.setdefault(family, {})[name] = options
            child.add_property(DesignIssue(
                name, EnumDomain(options), f"issue {name}"))
    library = ReuseLibrary("rand-lib", "random cores")
    core_id = 0
    for family, issues in issue_options.items():
        for _ in range(rng.randint(2, 5)):
            decisions = {name: rng.choice(options)
                         for name, options in issues.items()}
            merits = {"area": float(rng.randint(1, 40))}
            if rng.random() < 0.8:  # some cores omit a metric
                merits["latency_ns"] = float(rng.randint(1, 40))
            library.add(DesignObject(
                f"c{core_id}", f"R.{family}", decisions, merits))
            core_id += 1
    layer.attach_library(library)
    layer.validate()
    return layer


def random_core_population_layer(seed: int,
                                 num_cores: int) -> DesignSpaceLayer:
    """A randomized layer: some cores under-documented, some merits
    missing, several libraries.

    The hierarchy is fixed (``Block`` with three families, variant/tech
    issues, width/area requirements); the randomness is in the core
    population — which properties each core documents, which merits it
    carries, and which of three libraries holds it.  That is the shape
    that distinguishes indexed pruning from naive scans: posting sets
    with holes, merit arrays with absentees, federation iteration order
    spanning libraries.
    """
    rng = random.Random(seed)
    layer = DesignSpaceLayer("rand", f"randomized layer (seed {seed})")
    root = ClassOfDesignObjects("Block", "random block family")
    root.add_property(Requirement(
        "Width", IntRange(1), "width",
        sense=RequirementSense.AT_LEAST_SUPPORT))
    root.add_property(Requirement(
        "MaxArea", IntRange(0), "area bound", sense=RequirementSense.MAX))
    root.add_property(DesignIssue(
        "Family", EnumDomain(list(FAMILIES)), "family split",
        generalized=True))
    layer.add_root(root)
    for family in FAMILIES:
        child = root.specialize(family)
        child.add_property(DesignIssue(
            "Variant", EnumDomain(list(VARIANTS)), "variant"))
        child.add_property(DesignIssue(
            "Tech", EnumDomain(list(TECHS)), "technology"))
    libraries = [ReuseLibrary(f"lib{i}", "random cores") for i in range(3)]
    for i in range(num_cores):
        properties: Dict[str, object] = {}
        merits: Dict[str, float] = {}
        if rng.random() < 0.9:
            properties["Variant"] = rng.choice(VARIANTS)
        if rng.random() < 0.8:
            properties["Tech"] = rng.choice(TECHS)
        if rng.random() < 0.7:
            properties["Width"] = rng.choice([8, 16, 32, 64])
        if rng.random() < 0.9:
            merits["area"] = float(rng.randrange(10, 500))
        if rng.random() < 0.8:
            merits["latency_ns"] = float(rng.randrange(1, 100))
        if rng.random() < 0.3:
            merits["MaxArea"] = float(rng.randrange(10, 500))
        rng.choice(libraries).add(DesignObject(
            f"core{i}", f"Block.{rng.choice(FAMILIES)}", properties, merits))
    for library in libraries:
        if len(library):
            layer.attach_library(library)
    layer.validate()
    return layer


def dominance_gradient_layer(num_cores: int,
                             num_families: int = 8) -> DesignSpaceLayer:
    """A three-issue-deep synthetic layer with a dominance gradient.

    A generalized ``Family`` split over ``Pipeline``, ``Unroll`` and
    ``Banks``, with a ``Width`` requirement at the root.  Family ``f0``
    carries the best merits and each later family is offset strictly
    worse on both metrics, so a frontier seeded from an early family
    strictly dominates the optimistic bounds of most later branches —
    the structure branch-and-bound exploits.
    """
    layer = DesignSpaceLayer("explore-bench",
                             f"synthetic exploration layer, "
                             f"{num_cores} cores")
    root = ClassOfDesignObjects("Design", "synthetic design family")
    root.add_property(Requirement(
        "Width", IntRange(1), "width",
        sense=RequirementSense.AT_LEAST_SUPPORT))
    root.add_property(DesignIssue(
        "Family", EnumDomain([f"f{i}" for i in range(num_families)]),
        "family split", generalized=True))
    layer.add_root(root)
    for i in range(num_families):
        child = root.specialize(f"f{i}")
        child.add_property(DesignIssue(
            "Pipeline", EnumDomain([1, 2, 4, 8]), "pipeline depth"))
        child.add_property(DesignIssue(
            "Unroll", EnumDomain([1, 2, 4, 8]), "unroll factor"))
        child.add_property(DesignIssue(
            "Banks", EnumDomain([1, 2]), "memory banks"))
    library = ReuseLibrary("explore-bench", "generated cores")
    for i in range(num_cores):
        family = i % num_families
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


def random_exploration_problem(seed: int,
                               metrics: Sequence[str] = DEFAULT_METRICS
                               ) -> ExplorationProblem:
    """An :class:`ExplorationProblem` over :func:`random_hierarchy_layer`."""
    return ExplorationProblem(start="R", metrics=tuple(metrics),
                              layer=random_hierarchy_layer(seed))
