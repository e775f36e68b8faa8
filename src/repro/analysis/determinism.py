"""Determinism analysis (DSA040–DSA043): digest-purity proofs.

The digest oracles enforce byte-identical frontiers and payloads
*dynamically*.  This pass proves the property's precondition
statically: from every contract-declared digest entry point
(:attr:`ConcurrencyContract.digest_entry_points` — frontier and prune
digests, the strategies that build a frontier, the serving stack's
canonical JSON) it walks the typed call graph and reports any reachable
nondeterminism source:

* **DSA040** — wall-clock reads (``time.time``/``perf_counter``/
  ``datetime.now`` …): two runs of the same computation produce
  different bytes.
* **DSA041** — entropy (unseeded ``random``, ``os.urandom``,
  ``secrets``, ``uuid1``/``uuid4``): bytes differ even within one run.
* **DSA042** — object identity (``id()``, builtin ``hash()`` on
  arbitrary objects): values change per process under hash
  randomization and allocation order.
* **DSA043** — unordered ``set`` iteration flowing into an
  order-preserving consumer (``list``/``tuple``/``join``/
  comprehensions) without ``sorted()``: iteration order varies with
  insertion history and per-process hash seeds.  Plain ``for`` loops
  over sets are deliberately *not* flagged — commutative aggregation
  over a set is order-free and common.

The walk stops at functions named in
:attr:`ConcurrencyContract.determinism_boundaries` (with the reason
recorded in the contract — e.g. metrics side-channels whose output
never reaches the digest bytes).  Seeded generators
(``self._rng.random()``) are not flagged: only the module-level
``random.*`` / bare entropy builtins are nondeterminism sources.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.contract import ConcurrencyContract
from repro.analysis.inventory import CallSite, ProjectModel
from repro.analysis.model import Finding
from repro.analysis.registry import (ENTROPY_IN_DIGEST_PATH,
                                     IDENTITY_IN_DIGEST_PATH,
                                     TIME_IN_DIGEST_PATH,
                                     UNORDERED_ITERATION_IN_DIGEST)

_TIME_ATTRS = {
    "time": frozenset({"time", "time_ns", "perf_counter",
                       "perf_counter_ns", "monotonic", "monotonic_ns",
                       "process_time", "process_time_ns"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}
_TIME_NAMES = frozenset({"perf_counter", "perf_counter_ns", "monotonic",
                         "monotonic_ns", "time_ns"})

_ENTROPY_ATTRS = {
    "random": frozenset({"random", "randint", "randrange", "choice",
                         "choices", "shuffle", "sample", "uniform",
                         "gauss", "getrandbits", "randbytes"}),
    "os": frozenset({"urandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}
_ENTROPY_NAMES = frozenset({"urandom", "token_hex", "token_bytes",
                            "token_urlsafe", "uuid4", "getrandbits",
                            "randbytes"})

_IDENTITY_NAMES = frozenset({"id", "hash"})


def _digest_reachable(model: ProjectModel, contract: ConcurrencyContract
                      ) -> Dict[str, Tuple[str, int]]:
    """qualname -> (originating digest entry point, hop distance)."""
    reached: Dict[str, Tuple[str, int]] = {}
    work: List[Tuple[str, str, int]] = []
    for entry in sorted(contract.digest_entry_points):
        if entry in model.functions:
            work.append((entry, entry, 0))
    while work:
        qual, origin, hops = work.pop(0)
        if qual in reached:
            continue
        reached[qual] = (origin, hops)
        if qual in contract.determinism_boundaries and hops > 0:
            continue
        fn = model.functions.get(qual)
        if fn is None:
            continue
        for call in fn.calls:
            for target in model.resolve_call_typed(fn, call):
                if target not in reached:
                    work.append((target, origin, hops + 1))
    return reached


def _via(qual: str, origin: str) -> str:
    return "a digest entry point" if qual == origin \
        else f"the digest path from {origin}"


def _classify(call: CallSite) -> Tuple[str, str]:
    """('', '') or (rule key, human description) for one call site."""
    if call.kind == "attr":
        base = call.base or ""
        if call.name in _TIME_ATTRS.get(base, ()):
            return "time", f"wall-clock read '{base}.{call.name}()'"
        if base == "secrets":
            return "entropy", f"entropy source 'secrets.{call.name}()'"
        if call.name in _ENTROPY_ATTRS.get(base, ()):
            return "entropy", f"entropy source '{base}.{call.name}()'"
    elif call.kind == "name":
        if call.name in _TIME_NAMES:
            return "time", f"wall-clock read '{call.name}()'"
        if call.name in _ENTROPY_NAMES:
            return "entropy", f"entropy source '{call.name}()'"
        if call.name in _IDENTITY_NAMES:
            return "identity", (f"object-identity builtin "
                                f"'{call.name}(...)'")
    return "", ""


def check_determinism(model: ProjectModel,
                      contract: ConcurrencyContract) -> List[Finding]:
    findings: List[Finding] = []
    reached = _digest_reachable(model, contract)
    for qual in sorted(reached):
        fn = model.functions.get(qual)
        if fn is None:
            continue
        origin, _hops = reached[qual]
        if qual in contract.determinism_boundaries:
            continue
        module = model.modules[fn.module]
        for call in fn.calls:
            family, desc = _classify(call)
            if not family:
                continue
            if family == "time":
                findings.append(TIME_IN_DIGEST_PATH.make(
                    module.path, call.lineno, fn.qualname,
                    f"{desc} on {_via(qual, origin)}: two runs of the "
                    f"same computation serialize different bytes",
                    hint="drop the timestamp from the canonical "
                         "projection, or declare the function a "
                         "determinism boundary with a reason"))
            elif family == "entropy":
                findings.append(ENTROPY_IN_DIGEST_PATH.make(
                    module.path, call.lineno, fn.qualname,
                    f"{desc} on {_via(qual, origin)}: the digest "
                    f"changes on every call",
                    hint="derive the value from the inputs (seeded or "
                         "content-addressed), or keep it out of the "
                         "canonical bytes"))
            else:
                findings.append(IDENTITY_IN_DIGEST_PATH.make(
                    module.path, call.lineno, fn.qualname,
                    f"{desc} on {_via(qual, origin)}: values vary per "
                    f"process (allocation order / hash randomization)",
                    hint="key on stable content (names, sorted tuples) "
                         "instead of object identity"))
        for site in fn.set_iterations:
            findings.append(UNORDERED_ITERATION_IN_DIGEST.make(
                module.path, site.lineno, fn.qualname,
                f"unordered set iteration ({site.how} over "
                f"'{site.desc}') on {_via(qual, origin)}: iteration "
                f"order varies with insertion history and the "
                f"per-process hash seed",
                hint="wrap the set in sorted(...) before it reaches "
                     "serialized output"))
    return findings


__all__: Sequence[str] = ("check_determinism",)
