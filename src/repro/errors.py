"""Exception hierarchy for the design space layer.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers embedding the layer in a larger CAD environment can catch one base
class.  The sub-classes mirror the paper's vocabulary: properties, classes
of design objects (CDOs), consistency constraints, exploration sessions and
reuse libraries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DomainError(ReproError):
    """A value falls outside a property's set of values."""


class PropertyError(ReproError):
    """A property is ill-defined, duplicated or unknown."""


class HierarchyError(ReproError):
    """An invalid CDO hierarchy operation (cycles, duplicate children,
    more than one generalized design issue on a class, ...)."""


class PathError(ReproError):
    """A property path (e.g. ``Radix@*.Hardware.Montgomery``) failed to
    parse or to resolve against a layer."""


class ConstraintError(ReproError):
    """A consistency constraint is ill-formed or cannot be evaluated."""


class ConstraintViolation(ReproError):
    """An exploration decision violates a consistency constraint.

    Carries the violated constraint and a human-readable explanation so
    that interactive front-ends can show *why* a decision was rejected.
    """

    def __init__(self, constraint_name: str, explanation: str):
        self.constraint_name = constraint_name
        self.explanation = explanation
        super().__init__(f"constraint {constraint_name!r} violated: {explanation}")


class SessionError(ReproError):
    """An invalid exploration-session operation (deciding an issue whose
    independents are unresolved, undoing an empty history, ...)."""


class LibraryError(ReproError):
    """A reuse-library operation failed (duplicate core names, indexing a
    core under an unknown CDO, ...)."""


class ObservabilityError(ReproError):
    """A trace file is malformed or an observability operation failed."""


class ReplayError(ObservabilityError):
    """A recorded trace cannot be replayed against the given layer
    (no session_open event, unknown event kinds, ...)."""


class LintError(ReproError):
    """The static-analysis pass found error-severity diagnostics (strict
    mode), or the linter itself was misconfigured.

    When raised by strict linting, ``report`` carries the full
    :class:`~repro.core.lint.diagnostics.LintReport` so callers can show
    every finding, not just the first.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class AnalysisError(ReproError):
    """The concurrency/invariant analyzer over the repo's own source was
    misconfigured (unknown rule, unreadable path, bad suppression)."""


class ExplorationError(ReproError):
    """An automated exploration run was misconfigured (unknown strategy,
    bad strategy option, no layer or layer factory, ...)."""


class EstimationError(ReproError):
    """An early-estimation tool was invoked outside its utilization
    context or on an unsupported description."""


class SynthesisError(ReproError):
    """The hardware substrate could not build or evaluate a datapath."""
