"""Rule registry and per-run configuration for the concurrency analyzer.

Deliberately mirrors the design-space linter's conventions
(:mod:`repro.core.lint.registry`): stable codes — ``DSA`` (design space
analysis) instead of ``DSL`` — kebab-case slugs, a fixed category set, a
default severity per rule, and an :class:`AnalysisConfig` carrying
``select`` / ``disable`` / severity overrides.  The difference is that
analyzer rules are *metadata only*: the passes
(:mod:`~repro.analysis.races`, :mod:`~repro.analysis.epochs`,
:mod:`~repro.analysis.deadlock`, :mod:`~repro.analysis.determinism`)
each cover several codes and emit
findings through a rule's :meth:`AnalysisRule.make` factory rather than
being dispatched per rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.analysis.model import Finding
from repro.core.lint.diagnostics import Severity, parse_severity
from repro.errors import AnalysisError

_CODE_RE = re.compile(r"^DSA\d{3}$")
_SLUG_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")

#: Rule categories: one per analyzer pass, plus the suppression checks.
CATEGORIES = ("races", "epochs", "deadlock", "determinism",
              "suppressions")


@dataclass(frozen=True)
class AnalysisRule:
    """A registered analyzer rule: identity and default policy."""

    code: str
    slug: str
    category: str
    severity: Severity
    doc: str

    def make(self, path: str, line: int, symbol: str, message: str,
             hint: str = "",
             severity_override: Optional[Severity] = None) -> Finding:
        """Construct a finding carrying this rule's identity."""
        return Finding(code=self.code, rule=self.slug,
                       severity=severity_override or self.severity,
                       path=path, line=line, symbol=symbol,
                       message=message, hint=hint)

    def describe(self) -> str:
        return (f"{self.code} {self.slug} [{self.category}, "
                f"default {self.severity.value}] — {self.doc}")


class AnalysisRegistry:
    """Ordered collection of analyzer rules, keyed by code and slug."""

    def __init__(self) -> None:
        self._rules: Dict[str, AnalysisRule] = {}
        self._by_slug: Dict[str, AnalysisRule] = {}

    def register(self, rule: AnalysisRule) -> AnalysisRule:
        if not _CODE_RE.match(rule.code):
            raise AnalysisError(
                f"rule code {rule.code!r} does not match 'DSA<3 digits>'")
        if not _SLUG_RE.match(rule.slug):
            raise AnalysisError(f"rule slug {rule.slug!r} is not kebab-case")
        if rule.category not in CATEGORIES:
            raise AnalysisError(
                f"rule {rule.code}: unknown category {rule.category!r}; "
                f"expected one of {CATEGORIES}")
        if not rule.doc:
            raise AnalysisError(f"rule {rule.code} needs a doc string")
        if rule.code in self._rules:
            raise AnalysisError(f"duplicate rule code {rule.code!r}")
        if rule.slug in self._by_slug:
            raise AnalysisError(f"duplicate rule slug {rule.slug!r}")
        self._rules[rule.code] = rule
        self._by_slug[rule.slug] = rule
        return rule

    def get(self, key: str) -> AnalysisRule:
        """Look up by code (``DSA001``) or slug."""
        hit = self._rules.get(key) or self._by_slug.get(key)
        if hit is None:
            raise AnalysisError(
                f"no analysis rule {key!r}; known: {sorted(self._rules)}")
        return hit

    def __contains__(self, key: str) -> bool:
        return key in self._rules or key in self._by_slug

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[AnalysisRule]:
        return iter(sorted(self._rules.values(), key=lambda r: r.code))

    def codes(self) -> Sequence[str]:
        return tuple(sorted(self._rules))


#: The registry the stock rules below register into on import.
DEFAULT_REGISTRY = AnalysisRegistry()


def _stock(code: str, slug: str, category: str, severity: Severity,
           doc: str) -> AnalysisRule:
    return DEFAULT_REGISTRY.register(AnalysisRule(
        code=code, slug=slug, category=category, severity=severity, doc=doc))


# ----------------------------------------------------------------------
# the rule catalogue
# ----------------------------------------------------------------------
UNGUARDED_SHARED_WRITE = _stock(
    "DSA001", "unguarded-shared-write", "races", Severity.ERROR,
    "a write to shared mutable state (a module-level container or an "
    "attribute of a contract-shared class) is reachable from a "
    "concurrent context without a recognized lock or ownership guard")

UNLOCKED_CACHE_PUBLISH = _stock(
    "DSA002", "unlocked-cache-publish", "races", Severity.WARNING,
    "an idempotent cache publish (storing a locally built value into a "
    "shared dict) runs without a lock; atomic under the GIL but "
    "double-computes under contention — lock it or suppress with a "
    "justification")

SUPPRESSION_WITHOUT_JUSTIFICATION = _stock(
    "DSA003", "suppression-without-justification", "suppressions",
    Severity.ERROR,
    "a '# dsa: allow[...]' comment carries no '-- justification'; every "
    "suppression must explain why the finding is acceptable")

UNUSED_SUPPRESSION = _stock(
    "DSA004", "unused-suppression", "suppressions", Severity.WARNING,
    "a '# dsa: allow[...]' comment matches no finding on its line; "
    "stale suppressions hide future regressions")

MISSING_EPOCH_BUMP = _stock(
    "DSA010", "missing-epoch-bump", "epochs", Severity.ERROR,
    "a method mutates an epoch-guarded store without the paired epoch "
    "invalidation, so index/verify/prune caches could serve stale "
    "results")

EPOCH_COUNTER_REBOUND = _stock(
    "DSA011", "epoch-counter-rebound", "epochs", Severity.ERROR,
    "an epoch counter is re-assigned (rather than incremented) outside "
    "__init__, breaking the monotonicity every epoch-keyed cache "
    "depends on")

LOCK_ORDER_INVERSION = _stock(
    "DSA030", "lock-order-inversion", "deadlock", Severity.ERROR,
    "the lock-acquisition graph contains a cycle (ABBA deadlock), or "
    "an acquisition runs against the contract's declared canonical "
    "lock order — two threads taking the locks in opposite order "
    "block each other forever")

NONREENTRANT_REACQUISITION = _stock(
    "DSA031", "nonreentrant-reacquisition", "deadlock", Severity.ERROR,
    "a non-reentrant threading.Lock (or semaphore) is acquired again "
    "by the thread already holding it — lexically nested or through a "
    "same-instance call chain — so the thread deadlocks against itself")

BLOCKING_CALL_UNDER_LOCK = _stock(
    "DSA032", "blocking-call-under-lock", "deadlock", Severity.ERROR,
    "a blocking call (event/future wait, sleep, socket or file I/O, "
    "subprocess) runs inside a critical section, stalling every other "
    "acquirer for the duration of the wait")

TIME_IN_DIGEST_PATH = _stock(
    "DSA040", "time-in-digest-path", "determinism", Severity.ERROR,
    "a wall-clock read (time.*, perf_counter, datetime.now) is "
    "reachable from a digest entry point, so canonical bytes differ "
    "between two runs of the same computation")

ENTROPY_IN_DIGEST_PATH = _stock(
    "DSA041", "entropy-in-digest-path", "determinism", Severity.ERROR,
    "an entropy source (unseeded random, os.urandom, secrets, uuid4) "
    "is reachable from a digest entry point, so the digest changes on "
    "every call")

IDENTITY_IN_DIGEST_PATH = _stock(
    "DSA042", "identity-in-digest-path", "determinism", Severity.ERROR,
    "an object-identity builtin (id(), hash()) is reachable from a "
    "digest entry point; identities vary per process under allocation "
    "order and hash randomization")

UNORDERED_ITERATION_IN_DIGEST = _stock(
    "DSA043", "unordered-iteration-in-digest", "determinism",
    Severity.ERROR,
    "a set is iterated into an order-preserving consumer (list/tuple/"
    "join/comprehension) without sorted() on a digest path; iteration "
    "order varies with insertion history and the per-process hash seed")


@dataclass
class AnalysisConfig:
    """Per-run analyzer policy, mirroring ``LintConfig``.

    ``select`` (when given) whitelists rules by code/slug/category;
    ``disable`` removes individual rules; ``severity_overrides``
    re-grades a rule's findings.
    """

    select: Optional[Sequence[str]] = None
    disable: Sequence[str] = ()
    severity_overrides: Mapping[str, str] = field(default_factory=dict)

    def _matches(self, rule: AnalysisRule, keys: Iterable[str]) -> bool:
        return any(key in (rule.code, rule.slug, rule.category)
                   for key in keys)

    def is_enabled(self, rule: AnalysisRule) -> bool:
        if self.select is not None and \
                not self._matches(rule, self.select):
            return False
        return not self._matches(rule, self.disable)

    def severity_for(self, rule: AnalysisRule) -> Optional[Severity]:
        for key in (rule.code, rule.slug):
            if key in self.severity_overrides:
                return parse_severity(str(self.severity_overrides[key]))
        return None

    def validate(self, registry: Optional[AnalysisRegistry] = None) -> None:
        """Reject references to rules the registry does not know."""
        registry = registry if registry is not None else DEFAULT_REGISTRY
        named: List[str] = list(self.disable)
        named += list(self.select or ())
        named += list(self.severity_overrides)
        for key in named:
            if key in CATEGORIES or key in registry:
                continue
            raise AnalysisError(
                f"analysis config references unknown rule {key!r}; known "
                f"codes: {list(registry.codes())}")
