"""Analyzer driver: file discovery, passes, suppressions, report.

The suppression grammar is a source comment on the offending line or
the line directly above::

    # dsa: allow[DSA002] -- rebuilds are idempotent; store is GIL-atomic
    self._cache[key] = value

Multiple codes separate with commas.  The ``-- justification`` tail is
mandatory: an allow without one suppresses its target but earns the
error-grade **DSA003**, so the gate still fails.  An allow naming a code
with no matching finding earns **DSA004** — stale suppressions hide
future regressions.  Suppressed findings stay in the report (and the
JSON output) as the audit trail; only :attr:`AnalysisReport.active`
findings count toward ``--fail-on``.
"""

from __future__ import annotations

import importlib
import io
import os
import re
import tokenize
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.contract import DEFAULT_CONTRACT, ConcurrencyContract
from repro.analysis.deadlock import LockGraph, build_lock_graph, find_deadlocks
from repro.analysis.determinism import check_determinism
from repro.analysis.epochs import check_epochs
from repro.analysis.inventory import (ModuleInfo, ProjectModel, build_model,
                                      collect_files)
from repro.analysis.model import AnalysisReport, Finding, merge_findings
from repro.analysis.races import find_races
from repro.analysis.registry import (DEFAULT_REGISTRY, SUPPRESSION_WITHOUT_JUSTIFICATION,
                                     UNUSED_SUPPRESSION, AnalysisConfig,
                                     AnalysisRegistry)

_ALLOW_RE = re.compile(
    r"#\s*dsa:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*(?:--\s*(.+?)\s*)?$")


@dataclass
class _Allow:
    """One parsed ``# dsa: allow[...]`` comment."""

    lineno: int
    codes: Tuple[str, ...]
    justification: str
    target: Optional[int] = None   #: statement line the allow covers
    used: Set[str] = field(default_factory=set)


def _resolve_target(lines: List[str], lineno: int) -> Optional[int]:
    """The statement an allow comment covers: its own line when inline,
    else the next non-blank, non-comment line (justifications may wrap
    over several comment lines)."""
    text = lines[lineno - 1] if lineno - 1 < len(lines) else ""
    if text.split("#", 1)[0].strip():
        return lineno
    for later in range(lineno + 1, len(lines) + 1):
        stripped = lines[later - 1].strip()
        if not stripped or stripped.startswith("#"):
            continue
        return later
    return None


def _parse_allows(module: ModuleInfo) -> List[_Allow]:
    """Extract allow comments via :mod:`tokenize`, so the syntax can be
    quoted in docstrings and string literals without matching."""
    out: List[_Allow] = []
    lines = module.lines
    try:
        tokens = tokenize.generate_tokens(
            io.StringIO(module.source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(sorted({c.strip()
                                  for c in match.group(1).split(",")
                                  if c.strip()}))
            out.append(_Allow(lineno=token.start[0], codes=codes,
                              justification=(match.group(2) or "").strip(),
                              target=_resolve_target(lines, token.start[0])))
    except tokenize.TokenizeError:  # pragma: no cover - code ast-parses
        pass
    return out


def _apply_suppressions(model: ProjectModel, findings: List[Finding],
                        registry: AnalysisRegistry,
                        config: AnalysisConfig) -> List[Finding]:
    allows_by_path: Dict[str, List[_Allow]] = {}
    for module in model.modules.values():
        parsed = _parse_allows(module)
        if parsed:
            allows_by_path[module.path] = parsed

    out: List[Finding] = []
    for finding in findings:
        matched: Optional[_Allow] = None
        for allow in allows_by_path.get(finding.path, ()):
            if finding.line in (allow.lineno, allow.target) and \
                    finding.code in allow.codes:
                matched = allow
                break
        if matched is None:
            out.append(finding)
        else:
            matched.used.add(finding.code)
            out.append(finding.suppress(matched.justification))

    # audit the suppression comments themselves
    for path in sorted(allows_by_path):
        module_name = next(m.name for m in model.modules.values()
                           if m.path == path)
        for allow in allows_by_path[path]:
            if not allow.justification:
                rule = SUPPRESSION_WITHOUT_JUSTIFICATION
                if config.is_enabled(rule):
                    out.append(rule.make(
                        path, allow.lineno, module_name,
                        f"suppression of {', '.join(allow.codes)} has no "
                        f"'-- justification' tail",
                        hint="explain why the finding is acceptable: "
                             "'# dsa: allow[DSA0xx] -- <reason>'",
                        severity_override=config.severity_for(rule)))
            for code in allow.codes:
                if code in allow.used:
                    continue
                rule = UNUSED_SUPPRESSION
                if not config.is_enabled(rule):
                    continue
                detail = "matches no finding on its line" \
                    if code in registry else "names an unknown rule code"
                out.append(rule.make(
                    path, allow.lineno, module_name,
                    f"allow[{code}] {detail}",
                    hint="delete the stale suppression (or fix the code "
                         "reference) so it cannot mask a regression",
                    severity_override=config.severity_for(rule)))
    return out


def _resolve_root(paths: Sequence[str], files: Sequence[str],
                  root: Optional[str]) -> str:
    """Default analysis root: the sole directory argument, or the
    common parent of the given files."""
    if root is not None:
        return root
    dirs = [os.path.abspath(p) for p in paths if os.path.isdir(p)]
    if len(dirs) == 1:
        return dirs[0]
    root = os.path.commonpath(files) if files else os.getcwd()
    if os.path.isfile(root):
        root = os.path.dirname(root)
    return root


def analyze_paths(paths: Sequence[str], root: Optional[str] = None,
                  config: Optional[AnalysisConfig] = None,
                  contract: Optional[ConcurrencyContract] = None,
                  registry: Optional[AnalysisRegistry] = None
                  ) -> AnalysisReport:
    """Run all four passes over ``paths`` and return the report.

    ``root`` anchors the module names and the relative paths in
    findings; it defaults to the sole directory argument, or the common
    parent of the given files.
    """
    config = config if config is not None else AnalysisConfig()
    contract = contract if contract is not None else DEFAULT_CONTRACT
    registry = registry if registry is not None else DEFAULT_REGISTRY
    config.validate(registry)

    files = collect_files(paths)
    root = _resolve_root(paths, files, root)
    model = build_model(files, root)

    raw = (find_races(model, contract)
           + check_epochs(model, contract)
           + find_deadlocks(model, contract)
           + check_determinism(model, contract))

    findings: List[Finding] = []
    for finding in raw:
        rule = registry.get(finding.code)
        if not config.is_enabled(rule):
            continue
        override = config.severity_for(rule)
        if override is not None:
            finding = replace(finding, severity=override)
        findings.append(finding)

    findings = _apply_suppressions(model, findings, registry, config)
    return merge_findings(os.path.abspath(root), len(files), [findings])


def lock_graph_paths(paths: Sequence[str], root: Optional[str] = None,
                     contract: Optional[ConcurrencyContract] = None
                     ) -> LockGraph:
    """Build the lock-acquisition graph for ``paths`` (the artifact the
    CI cycle-free assertion gates on; see ``repro analyze --lock-graph``)."""
    contract = contract if contract is not None else DEFAULT_CONTRACT
    files = collect_files(paths)
    root = _resolve_root(paths, files, root)
    model = build_model(files, root)
    return build_lock_graph(model, contract)


def lock_graph_package(package: str = "repro",
                       contract: Optional[ConcurrencyContract] = None
                       ) -> LockGraph:
    """Lock-acquisition graph for an importable package's source tree."""
    package_dir = _package_dir(package)
    return lock_graph_paths([package_dir],
                            root=os.path.dirname(package_dir),
                            contract=contract)


def _package_dir(package: str) -> str:
    module = importlib.import_module(package)
    package_file = getattr(module, "__file__", None)
    if package_file is None:
        from repro.errors import AnalysisError
        raise AnalysisError(f"package {package!r} has no source file")
    return os.path.dirname(os.path.abspath(package_file))


def analyze_package(package: str = "repro",
                    config: Optional[AnalysisConfig] = None,
                    contract: Optional[ConcurrencyContract] = None,
                    registry: Optional[AnalysisRegistry] = None
                    ) -> AnalysisReport:
    """Analyze an importable package's source tree (default: this repo)."""
    package_dir = _package_dir(package)
    return analyze_paths([package_dir], root=os.path.dirname(package_dir),
                         config=config, contract=contract,
                         registry=registry)
