"""The design space layer — the paper's primary contribution.

Public API re-exported here; see DESIGN.md for the system inventory and
the README for a guided tour.
"""

from repro.core.advisor import IssueImpact, advise, assess_issue
from repro.core.cdo import ClassOfDesignObjects
from repro.core.decomposition import (
    DEFAULT_SYMBOL_CLASSES,
    DecompositionPlan,
    OperatorTask,
    plan_decomposition,
)
from repro.core.diff import LayerDiff, MeritDelta, diff_layers
from repro.core.clustering import (
    Cluster,
    agglomerate,
    explain_clusters,
    suggest_cluster_count,
    suggest_generalization,
)
from repro.core.constraints import (
    UNBOUND,
    ConsistencyConstraint,
    ConstraintSet,
    SessionBinding,
)
from repro.core.designobject import (
    AREA,
    CLOCK_NS,
    CYCLES,
    DELAY_US,
    LATENCY_NS,
    POWER_MW,
    THROUGHPUT_OPS,
    DesignObject,
)
from repro.core.evaluation import EvaluationPoint, EvaluationSpace, dominates
from repro.core.explore import (
    BranchAndBoundStrategy,
    BeamStrategy,
    EvolutionaryStrategy,
    ExhaustiveStrategy,
    ExplorationEngine,
    ExplorationProblem,
    ExplorationResult,
    ExplorationStats,
    Outcome,
    ParetoFrontier,
    PoolStats,
    SearchStrategy,
    WorkerPool,
    make_strategy,
)
from repro.core.index import CoreIndex, IndexedPruneReport
from repro.core.layer import DesignSpaceLayer
from repro.core.library import LibraryFederation, ReuseLibrary
from repro.core.lint import (
    Diagnostic,
    LintConfig,
    LintReport,
    LintRule,
    RuleRegistry,
    Severity,
    SourceLocation,
    lint_layer,
)
from repro.core.path import (
    ClassPattern,
    PropertyPath,
    Selector,
    SelectorRegistry,
    parse_path,
    parse_pattern,
)
from repro.core.properties import (
    BehavioralDecomposition,
    BehavioralDescription,
    DesignIssue,
    Property,
    PropertyKind,
    Requirement,
    RequirementSense,
)
from repro.core.pruning import (
    MissingPolicy,
    PruneReport,
    merit_ranges,
    option_support,
    prune,
)
from repro.core.query import CoreQuery, QueryError
from repro.core.reindex import (
    attach_alternative_hierarchy,
    reindex,
    reindexed_core,
)
from repro.core.relations import (
    EliminateOptions,
    EstimatorInvocation,
    Formula,
    InconsistentOptions,
    Relation,
    RelationResult,
)
from repro.core.sensitivity import (
    SensitivityReport,
    SweepPoint,
    sweep_requirement,
)
from repro.core.reporting import (
    render_hierarchy,
    render_markdown,
    render_scatter,
    render_table,
)
from repro.core.serialize import (
    LayerSnapshot,
    SerializationError,
    layer_from_dict,
    layer_to_dict,
    register_hydrator,
)
from repro.core.obs import (
    MetricsRegistry,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
)
from repro.core.session import DecisionOutcome, ExplorationSession, OptionInfo
from repro.core.values import (
    AnyDomain,
    BoolDomain,
    DivisorDomain,
    Domain,
    EnumDomain,
    IntRange,
    PowerOfTwoDomain,
    PredicateDomain,
    RealRange,
)

__all__ = [
    "AREA", "CLOCK_NS", "CYCLES", "DELAY_US", "LATENCY_NS", "POWER_MW",
    "THROUGHPUT_OPS",
    "AnyDomain", "BoolDomain", "DivisorDomain", "Domain", "EnumDomain",
    "IntRange", "PowerOfTwoDomain", "PredicateDomain", "RealRange",
    "BehavioralDecomposition", "BehavioralDescription", "DesignIssue",
    "Property", "PropertyKind", "Requirement", "RequirementSense",
    "ClassOfDesignObjects", "DesignSpaceLayer",
    "ClassPattern", "PropertyPath", "Selector", "SelectorRegistry",
    "parse_path", "parse_pattern",
    "ConsistencyConstraint", "ConstraintSet", "SessionBinding", "UNBOUND",
    "EliminateOptions", "EstimatorInvocation", "Formula",
    "InconsistentOptions", "Relation", "RelationResult",
    "DesignObject", "LibraryFederation", "ReuseLibrary",
    "CoreIndex", "IndexedPruneReport",
    "MissingPolicy", "PruneReport", "merit_ranges", "option_support", "prune",
    "EvaluationPoint", "EvaluationSpace", "dominates",
    "Cluster", "agglomerate", "explain_clusters", "suggest_cluster_count",
    "suggest_generalization",
    "DecisionOutcome", "ExplorationSession", "OptionInfo",
    "MetricsRegistry", "NullRecorder", "TraceEvent", "TraceRecorder",
    "render_hierarchy", "render_markdown", "render_scatter",
    "render_table",
    "DEFAULT_SYMBOL_CLASSES", "DecompositionPlan", "OperatorTask",
    "plan_decomposition",
    "CoreQuery", "QueryError",
    "LayerDiff", "MeritDelta", "diff_layers",
    "attach_alternative_hierarchy", "reindex", "reindexed_core",
    "LayerSnapshot", "SerializationError", "layer_from_dict",
    "layer_to_dict", "register_hydrator",
    "SensitivityReport", "SweepPoint", "sweep_requirement",
    "IssueImpact", "advise", "assess_issue",
    "Diagnostic", "LintConfig", "LintReport", "LintRule", "RuleRegistry",
    "Severity", "SourceLocation", "lint_layer",
    "BeamStrategy", "BranchAndBoundStrategy",
    "EvolutionaryStrategy", "ExhaustiveStrategy",
    "ExplorationEngine", "ExplorationProblem", "ExplorationResult",
    "ExplorationStats", "Outcome", "ParetoFrontier", "PoolStats",
    "SearchStrategy", "WorkerPool", "make_strategy",
]
