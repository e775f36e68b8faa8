"""Semantic design-space verifier (the ``repro verify`` engine).

The static analysis tier between the structural linter and the runtime
exploration engine: abstract interpretation over the consistency
constraints computes a sound over-approximation of every CDO's feasible
region, and on top of it dead-branch proofs (``DSL100``/``DSL101``),
minimal unsat cores for infeasible requirement sets (``DSL103``) and a
constraint stratification report (``DSL102``).

Entry points:

* :func:`analyze_layer` — the raw, epoch-cached analysis;
* :func:`verify_layer` — analysis + DSL1xx diagnostics as a
  :class:`VerifyReport`;
* :meth:`DesignSpaceLayer.verify` — the same, as a layer method;
* ``python -m repro verify`` — the CLI surface (text or JSON output).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.layer import DesignSpaceLayer
    from repro.core.lint import LintConfig as _LintConfig

from repro.core.verify.domains import (
    TOP,
    AbstractValue,
    FiniteSet,
    Interval,
    abstract_of,
    finite_values,
    is_empty,
    join,
    meet,
)
from repro.core.verify.engine import (
    CdoRegion,
    DeadBranchProof,
    Stratum,
    UnsatCore,
    VerifyAnalysis,
    analyze_layer,
    epoch_cached,
)
from repro.core.verify.report import VerifyReport


def verify_layer(layer: "DesignSpaceLayer",
                 requirements: Sequence[Tuple[str, object]] = (),
                 start: Optional[str] = None,
                 config: Optional["_LintConfig"] = None) -> VerifyReport:
    """Verify ``layer``: run the analysis, then render its findings as
    DSL1xx diagnostics through the lint pipeline.

    ``config`` may carry an existing
    :class:`~repro.core.lint.LintConfig` (severity overrides,
    disables); its rule options are augmented with the verifier opt-in.
    Without a ``config`` the report is kept next to its analysis in the
    layer's memo, so a repeated verify of an unchanged layer returns the
    same report object.
    """
    if config is None:
        return epoch_cached(  # type: ignore[return-value]
            layer, requirements, start, "report",
            lambda given: _verify(layer, given, start, None))
    return _verify(layer, requirements, start, config)


def _verify(layer: "DesignSpaceLayer",
            requirements: Sequence[Tuple[str, object]],
            start: Optional[str],
            config: Optional["_LintConfig"]) -> VerifyReport:
    from repro.core.lint import LintConfig, lint_layer

    analysis = analyze_layer(layer, requirements=requirements, start=start)
    verify_options: Dict[str, object] = {
        "enabled": True,
        "requirements": tuple(requirements),
        "start": start,
    }
    if config is None:
        config = LintConfig(select=("verify",),
                            rule_options={"verify": verify_options})
    else:
        if not isinstance(config, LintConfig):
            raise TypeError(
                f"config must be a LintConfig, got {type(config).__name__}")
        merged = dict(config.rule_options)
        verify_options.update(merged.get("verify", {}))
        verify_options["enabled"] = True
        merged["verify"] = verify_options
        config = LintConfig(
            select=config.select if config.select is not None else ("verify",),
            disable=config.disable,
            severity_overrides=config.severity_overrides,
            rule_options=merged)
    lint = lint_layer(layer, config=config)
    return VerifyReport(analysis=analysis, lint=lint)


__all__ = [
    "TOP",
    "AbstractValue",
    "CdoRegion",
    "DeadBranchProof",
    "FiniteSet",
    "Interval",
    "Stratum",
    "UnsatCore",
    "VerifyAnalysis",
    "VerifyReport",
    "abstract_of",
    "analyze_layer",
    "finite_values",
    "is_empty",
    "join",
    "meet",
    "verify_layer",
]
