"""The analyzer's raison d'être: this repo analyzes clean.

CI gates ``repro analyze --fail-on warning`` at zero unsuppressed
findings; this test is the same gate as a unit test, so a regression —
a new unguarded write, a store without its epoch bump, a lock taken
against the canonical order — fails the suite locally before it reaches
CI.
"""

from repro.analysis import DEFAULT_CONTRACT, analyze_package
from repro.core.lint.diagnostics import Severity


def test_repo_source_is_clean_at_the_ci_gate():
    report = analyze_package("repro")
    offending = "\n".join(f.render() for f in report.active)
    assert not report.has_at_least(Severity.WARNING), \
        f"repo analysis regressed:\n{offending}"
    assert report.clean, f"unsuppressed findings:\n{offending}"


def test_every_suppression_in_the_repo_is_justified():
    report = analyze_package("repro")
    for finding in report.suppressed:
        assert finding.justification, \
            f"unjustified suppression at {finding.path}:{finding.line}"


def test_analysis_covers_the_whole_package():
    report = analyze_package("repro")
    # The package is >100 modules; a collapse in file discovery would
    # make the clean gate vacuous.
    assert report.files > 100


def test_default_contract_matches_live_code():
    """Contract entries must reference real classes/functions — a rename
    would otherwise quietly turn a pass into a no-op."""
    from repro.core.cdo import ClassOfDesignObjects
    from repro.core.constraints import ConstraintSet
    from repro.core.designobject import DesignObject
    from repro.core.layer import DesignSpaceLayer
    from repro.core.library import LibraryFederation, ReuseLibrary

    live = {
        "DesignSpaceLayer": DesignSpaceLayer,
        "LibraryFederation": LibraryFederation,
        "ReuseLibrary": ReuseLibrary,
        "DesignObject": DesignObject,
        "ConstraintSet": ConstraintSet,
        "ClassOfDesignObjects": ClassOfDesignObjects,
    }
    instances = {
        "DesignSpaceLayer": DesignSpaceLayer("layer", "contract probe"),
        "LibraryFederation": LibraryFederation(),
        "ReuseLibrary": ReuseLibrary("library"),
        "DesignObject": DesignObject("core", "Root"),
        "ConstraintSet": ConstraintSet(),
        "ClassOfDesignObjects": ClassOfDesignObjects("Root", "probe"),
    }
    for ec in DEFAULT_CONTRACT.epoch_contracts:
        cls = live.get(ec.class_name)
        assert cls is not None, f"unknown epoch class {ec.class_name}"
        for bump in ec.bump_methods:
            assert hasattr(cls, bump), f"{ec.class_name}.{bump} missing"
        # A store or counter the class no longer has would make the
        # epoch pass check a name no method writes.
        for attr in ec.stores + ec.epoch_attrs:
            assert hasattr(instances[ec.class_name], attr), \
                f"{ec.class_name} instances have no {attr!r}"
    for class_name, mutators in DEFAULT_CONTRACT.owned_mutators.items():
        cls = live.get(class_name)
        assert cls is not None, f"unknown owned-mutator class {class_name}"
        for name in mutators:
            assert callable(getattr(cls, name, None)), \
                f"owned mutator {class_name}.{name} is not a live method"
    import importlib

    for entry in DEFAULT_CONTRACT.extra_entry_points:
        module_name, qualname = entry.split(":")
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            assert hasattr(target, part), f"entry point {entry} missing"
            target = getattr(target, part)


def _resolve_qualname(entry):
    import importlib

    module_name, qualname = entry.split(":")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        assert hasattr(target, part), f"{entry} names nothing live"
        target = getattr(target, part)
    return target


def test_digest_entry_points_reference_live_code():
    """A renamed digest producer must fail loudly, not silently shrink
    the determinism pass's coverage."""
    for entry in DEFAULT_CONTRACT.digest_entry_points:
        _resolve_qualname(entry)
    for entry in DEFAULT_CONTRACT.determinism_boundaries:
        _resolve_qualname(entry)
    for entry in DEFAULT_CONTRACT.blocking_allowed:
        _resolve_qualname(entry)


def test_lock_order_names_real_locks():
    """Every declared lock id must exist as a graph node, and the canon
    must not name a lock twice."""
    from repro.analysis import lock_graph_package

    graph = lock_graph_package("repro")
    known = {node.lock for node in graph.nodes}
    assert len(set(DEFAULT_CONTRACT.lock_order)) == \
        len(DEFAULT_CONTRACT.lock_order)
    for lock in DEFAULT_CONTRACT.lock_order:
        assert lock in known, f"lock_order names unknown lock {lock}"


def test_serving_stack_lock_graph_is_cycle_free():
    """The CI assertion (``repro analyze --lock-graph``) as a unit test:
    the serving stack plus the observability leaves must order their
    locks acyclically."""
    import os

    from repro.analysis import lock_graph_paths
    from repro.serve import app

    serve_dir = os.path.dirname(os.path.abspath(app.__file__))
    src = os.path.dirname(os.path.dirname(serve_dir))
    graph = lock_graph_paths(
        [serve_dir, os.path.join(src, "repro", "core", "obs")],
        root=src)
    assert graph.nodes, "lock discovery collapsed"
    assert graph.acyclic, graph.render_text()
    # every cross-lock edge must also run forward through the canon
    order = {lock: i for i, lock in enumerate(DEFAULT_CONTRACT.lock_order)}
    for edge in graph.edges:
        if edge.src == edge.dst:
            continue
        src_idx, dst_idx = order.get(edge.src), order.get(edge.dst)
        if src_idx is not None and dst_idx is not None:
            assert src_idx < dst_idx, edge.describe()


def test_whole_repo_lock_graph_is_cycle_free():
    from repro.analysis import lock_graph_package

    graph = lock_graph_package("repro")
    assert graph.acyclic, graph.render_text()
