"""Deadlock analysis (DSA030–DSA032): lock-order graphs over the repo.

The pass reifies the locking discipline the serving stack relies on into
three checks over the AST inventory:

* **DSA030 — lock-order inversion.**  A whole-repo lock-acquisition
  graph is built from the inventory's lock scopes plus the *typed* call
  graph: an edge ``A -> B`` means code somewhere acquires ``B`` (nested
  ``with``, or transitively through resolvable calls) while holding
  ``A``.  Any strongly connected component with more than one lock is a
  potential ABBA deadlock; additionally, every edge is validated against
  the contract's declared canonical acquisition order — an edge running
  *backward* through :attr:`ConcurrencyContract.lock_order` is reported
  even before the matching reverse edge exists.

* **DSA031 — re-entrant acquisition of a non-reentrant lock.**  A
  ``threading.Lock`` (or semaphore) re-acquired by its holder
  self-deadlocks.  To stay precise under the over-approximate call
  graph, re-entry is only traced along *same-instance* channels:
  lexical nesting, ``self``-call chains within the declaring class, and
  (for module-level locks, which are singletons) the typed call graph.

* **DSA032 — blocking call under a lock.**  ``Event.wait``,
  ``Future.result``, ``time.sleep``, socket accept/recv/connect,
  ``subprocess`` invocations and file ``open`` inside a critical
  section serialize every other acquirer behind an unbounded wait.
  ``Condition.wait`` on the *scope's own lock* is exempt (it releases
  the lock); functions listed in
  :attr:`ConcurrencyContract.blocking_allowed` carry their
  justification in the contract instead of inline.

Call-graph resolution is deliberately *under*-approximate here (typed
receivers only — see :meth:`ProjectModel.resolve_call_typed`): a graph
with invented edges would drown real inversions in noise and make the
cycle-free CI assertion meaningless.  The trade-off is documented in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.contract import ConcurrencyContract
from repro.analysis.inventory import (REENTRANT_KINDS, FunctionInfo,
                                      LockScope, ProjectModel)
from repro.analysis.model import Finding
from repro.analysis.registry import (BLOCKING_CALL_UNDER_LOCK,
                                     LOCK_ORDER_INVERSION,
                                     NONREENTRANT_REACQUISITION)

#: Attribute-call names that block the calling thread.  ``join`` is
#: deliberately absent (``str.join`` collisions) and ``get`` too (dict
#: reads); both are documented soft spots.
_BLOCKING_ATTRS = {
    "wait": "a wait on an event/condition/future",
    "result": "a Future.result() wait",
    "sleep": "a sleep",
    "accept": "a blocking socket accept",
    "recv": "a blocking socket read",
    "recvfrom": "a blocking socket read",
    "connect": "a blocking connect",
    "select": "a blocking select",
    "communicate": "a subprocess wait",
    "check_call": "a subprocess wait",
    "check_output": "a subprocess wait",
    "run": "a subprocess wait",
    "urlopen": "a blocking HTTP request",
    "getresponse": "a blocking HTTP request",
}

#: ``run`` only blocks when it is ``subprocess.run``; other receivers
#: (e.g. a scheduler's ``run``) are project calls the graph handles.
_RECEIVER_GATED = {"run": "subprocess"}

#: Plain-name calls that block.
_BLOCKING_NAMES = {
    "sleep": "a sleep",
    "open": "file I/O",
    "urlopen": "a blocking HTTP request",
}


@dataclass(frozen=True)
class LockNode:
    """One declared lock: identity, kind, declaration site."""

    lock: str
    kind: str
    path: str
    line: int

    def to_dict(self) -> Dict[str, object]:
        return {"lock": self.lock, "kind": self.kind,
                "path": self.path, "line": self.line}


@dataclass(frozen=True)
class LockEdge:
    """``src`` held while ``dst`` is acquired, with provenance."""

    src: str
    dst: str
    path: str            #: file of the acquisition under ``src``
    line: int
    symbol: str          #: function holding ``src``
    via: str = ""        #: callee qualname for transitive edges

    def describe(self) -> str:
        how = f" via {self.via}" if self.via else ""
        return (f"{self.src} -> {self.dst} "
                f"({self.path}:{self.line}, in {self.symbol}{how})")

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "src": self.src, "dst": self.dst, "path": self.path,
            "line": self.line, "symbol": self.symbol,
        }
        if self.via:
            out["via"] = self.via
        return out


@dataclass
class LockGraph:
    """The lock-acquisition order graph with provenance."""

    nodes: List[LockNode] = field(default_factory=list)
    edges: List[LockEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.nodes = sorted(set(self.nodes),
                            key=lambda n: (n.lock, n.path, n.line))
        self.edges = sorted(set(self.edges),
                            key=lambda e: (e.src, e.dst, e.path, e.line,
                                           e.via))

    # -- queries -------------------------------------------------------
    def successors(self, lock: str) -> List[LockEdge]:
        return [e for e in self.edges if e.src == lock]

    def cycles(self) -> List[Tuple[str, ...]]:
        """Strongly connected components with more than one lock
        (self-loops are DSA031's domain, not an ordering cycle).

        Kosaraju over the edge set; the graph holds a couple of dozen
        locks at most, so plain recursion is fine.
        """
        forward: Dict[str, Set[str]] = {}
        reverse: Dict[str, Set[str]] = {}
        for edge in self.edges:
            if edge.src != edge.dst:
                forward.setdefault(edge.src, set()).add(edge.dst)
                reverse.setdefault(edge.dst, set()).add(edge.src)
        seen: Set[str] = set()

        def dfs(node: str, graph: Dict[str, Set[str]],
                out: List[str]) -> None:
            seen.add(node)
            for nxt in sorted(graph.get(node, ())):
                if nxt not in seen:
                    dfs(nxt, graph, out)
            out.append(node)

        order: List[str] = []
        nodes = sorted({e.src for e in self.edges}
                       | {e.dst for e in self.edges})
        for node in nodes:
            if node not in seen:
                dfs(node, forward, order)
        seen.clear()
        components: List[Tuple[str, ...]] = []
        for node in reversed(order):
            if node in seen:
                continue
            component: List[str] = []
            dfs(node, reverse, component)
            if len(component) > 1:
                components.append(tuple(sorted(component)))
        return sorted(components)

    @property
    def acyclic(self) -> bool:
        return not self.cycles()

    # -- rendering -----------------------------------------------------
    def summary(self) -> str:
        cycles = self.cycles()
        state = "acyclic" if not cycles else \
            f"{len(cycles)} cycle{'s' if len(cycles) != 1 else ''}"
        return (f"lock-order graph: {len(self.nodes)} locks, "
                f"{len(self.edges)} edges, {state}")

    def render_text(self) -> str:
        lines = [self.summary()]
        edges_by_src: Dict[str, List[LockEdge]] = {}
        for edge in self.edges:
            edges_by_src.setdefault(edge.src, []).append(edge)
        for node in self.nodes:
            lines.append(f"  {node.lock} [{node.kind}] "
                         f"@ {node.path}:{node.line}")
            for edge in edges_by_src.get(node.lock, ()):
                how = f" via {edge.via}" if edge.via else ""
                lines.append(f"    -> {edge.dst}  "
                             f"({edge.path}:{edge.line}, "
                             f"in {edge.symbol}{how})")
        for cycle in self.cycles():
            lines.append(f"  CYCLE: {' -> '.join(cycle)}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "locks": [n.to_dict() for n in self.nodes],
            "edges": [e.to_dict() for e in self.edges],
            "cycles": [list(c) for c in self.cycles()],
            "acyclic": self.acyclic,
        }


def _direct_locks(fn: FunctionInfo) -> Set[str]:
    return {scope.lock for scope in fn.lock_scopes}


def _typed_callees(model: ProjectModel,
                   fn: FunctionInfo) -> Dict[int, List[str]]:
    """Call line -> typed-resolved callee qualnames."""
    out: Dict[int, List[str]] = {}
    for call in fn.calls:
        targets = model.resolve_call_typed(fn, call)
        if targets:
            out.setdefault(call.lineno, []).extend(targets)
    return out


def _acquired_closure(model: ProjectModel) -> Dict[str, Set[str]]:
    """Fixpoint: every lock a function may acquire in its call subtree."""
    closure: Dict[str, Set[str]] = {
        qual: _direct_locks(fn) for qual, fn in model.functions.items()}
    callees: Dict[str, Set[str]] = {}
    for qual, fn in model.functions.items():
        targets: Set[str] = set()
        for per_line in _typed_callees(model, fn).values():
            targets.update(per_line)
        callees[qual] = targets
    changed = True
    while changed:
        changed = False
        for qual, targets in callees.items():
            bucket = closure[qual]
            before = len(bucket)
            for target in targets:
                bucket.update(closure.get(target, ()))
            if len(bucket) != before:
                changed = True
    return closure


def build_lock_graph(model: ProjectModel,
                     contract: ConcurrencyContract) -> LockGraph:
    """The whole-project lock-acquisition graph with provenance."""
    nodes: List[LockNode] = []
    for module in model.modules.values():
        for decl in module.module_locks.values():
            nodes.append(LockNode(f"{module.name}:{decl.name}", decl.kind,
                                  module.path, decl.lineno))
        for cls in module.classes.values():
            for decl in cls.self_locks.values():
                nodes.append(LockNode(f"{cls.name}.{decl.name}", decl.kind,
                                      module.path, decl.lineno))

    closure = _acquired_closure(model)
    edges: List[LockEdge] = []
    known = {node.lock for node in nodes}
    for qual in sorted(model.functions):
        fn = model.functions[qual]
        if not fn.lock_scopes:
            continue
        module = model.modules[fn.module]
        typed = _typed_callees(model, fn)
        for scope in fn.lock_scopes:
            # heuristically-recognized guards (kind "unknown") have no
            # proven identity, so they are not graph nodes
            if scope.lock not in known:
                continue
            for other in fn.lock_scopes:
                if other is scope or other.lineno not in scope.lines:
                    continue
                if other.lock not in known:
                    continue
                edges.append(LockEdge(scope.lock, other.lock, module.path,
                                      other.lineno, fn.qualname))
            for lineno in sorted(typed):
                if lineno not in scope.lines:
                    continue
                for target in typed[lineno]:
                    for acquired in sorted(closure.get(target, ())):
                        if acquired in known:
                            edges.append(LockEdge(
                                scope.lock, acquired, module.path, lineno,
                                fn.qualname, via=target))
    return LockGraph(nodes=nodes, edges=edges)


def _order_index(contract: ConcurrencyContract) -> Dict[str, int]:
    return {lock: i for i, lock in enumerate(contract.lock_order)}


def _is_reentrant(kind: str, lock: str,
                  contract: ConcurrencyContract) -> bool:
    return kind in REENTRANT_KINDS or kind == "unknown" or \
        lock in contract.reentrant_locks


def _same_instance_reacquisitions(
        model: ProjectModel, contract: ConcurrencyContract
) -> List[Tuple[FunctionInfo, LockScope, str, int, str]]:
    """(holder, scope, reached qualname, site line, channel) tuples where
    the scope's non-reentrant lock is acquired again by its holder."""
    out: List[Tuple[FunctionInfo, LockScope, str, int, str]] = []
    for qual in sorted(model.functions):
        fn = model.functions[qual]
        for scope in fn.lock_scopes:
            if _is_reentrant(scope.kind, scope.lock, contract):
                continue
            # lexical re-entry: a nested with on the same lock
            for other in fn.lock_scopes:
                if other is not scope and other.lock == scope.lock and \
                        other.lineno in scope.lines:
                    out.append((fn, scope, fn.qualname, other.lineno,
                                "nested with"))
            is_module_lock = ":" in scope.lock
            # call-graph re-entry along same-instance channels
            seen: Set[str] = set()
            work: List[Tuple[str, int]] = []
            for call in fn.calls:
                if call.lineno not in scope.lines:
                    continue
                if call.kind == "self" or is_module_lock:
                    for target in model.resolve_call_typed(fn, call):
                        work.append((target, call.lineno))
            while work:
                target, site = work.pop()
                if target in seen:
                    continue
                seen.add(target)
                callee = model.functions.get(target)
                if callee is None:
                    continue
                if any(s.lock == scope.lock for s in callee.lock_scopes):
                    out.append((fn, scope, target, site, "call chain"))
                    continue
                for call in callee.calls:
                    same_instance = (
                        call.kind == "self"
                        and callee.class_name == fn.class_name)
                    if same_instance or is_module_lock:
                        for nxt in model.resolve_call_typed(callee, call):
                            work.append((nxt, site))
    return out


def find_deadlocks(model: ProjectModel,
                   contract: ConcurrencyContract) -> List[Finding]:
    findings: List[Finding] = []
    graph = build_lock_graph(model, contract)
    paths = {node.lock: (node.path, node.line) for node in graph.nodes}

    # DSA030a: strongly connected components — a realized ABBA inversion
    for cycle in graph.cycles():
        involved = sorted(
            (e for e in graph.edges
             if e.src in cycle and e.dst in cycle and e.src != e.dst),
            key=lambda e: (e.path, e.line))
        site = involved[0]
        detail = "; ".join(e.describe() for e in involved)
        findings.append(LOCK_ORDER_INVERSION.make(
            site.path, site.line, site.symbol,
            f"lock-order inversion cycle {' -> '.join(cycle)}: {detail}",
            hint="pick one acquisition order for these locks, declare it "
                 "in the contract's lock_order, and restructure the "
                 "reversed acquisition (drop the inner lock before "
                 "calling across, or acquire both up front in order)"))

    # DSA030b: edges running backward through the declared canon
    order = _order_index(contract)
    for edge in graph.edges:
        if edge.src == edge.dst:
            continue
        src_idx = order.get(edge.src)
        dst_idx = order.get(edge.dst)
        if src_idx is None or dst_idx is None or src_idx < dst_idx:
            continue
        findings.append(LOCK_ORDER_INVERSION.make(
            edge.path, edge.line, edge.symbol,
            f"acquisition of {edge.dst} while holding {edge.src} runs "
            f"against the declared lock order "
            f"(canon: {edge.dst} before {edge.src})",
            hint="acquire the locks in the declared order, or update "
                 "ConcurrencyContract.lock_order if the canon itself "
                 "changed"))

    # DSA031: same-instance re-acquisition of a non-reentrant lock
    for fn, scope, reached, site, channel in \
            _same_instance_reacquisitions(model, contract):
        module = model.modules[fn.module]
        where = paths.get(scope.lock, (module.path, scope.lineno))
        via = "" if reached == fn.qualname else f" via {reached}"
        findings.append(NONREENTRANT_REACQUISITION.make(
            module.path, site, fn.qualname,
            f"non-reentrant {scope.kind} {scope.lock} (declared at "
            f"{where[0]}:{where[1]}) is re-acquired by its holder "
            f"({channel}{via}) — the thread deadlocks against itself",
            hint="use threading.RLock, or restructure so the inner "
                 "acquisition happens outside the critical section "
                 "(the _locked-helper pattern)"))

    # DSA032: blocking calls inside a critical section
    for qual in sorted(model.functions):
        fn = model.functions[qual]
        if not fn.lock_scopes:
            continue
        if fn.qualname in contract.blocking_allowed:
            continue
        module = model.modules[fn.module]
        for scope in fn.lock_scopes:
            own_attr = scope.lock.rsplit(".", 1)[-1] \
                if "." in scope.lock else scope.lock.rsplit(":", 1)[-1]
            for call in fn.calls:
                if call.lineno not in scope.lines:
                    continue
                if call.kind == "attr" and call.name in _BLOCKING_ATTRS:
                    gate = _RECEIVER_GATED.get(call.name)
                    if gate is not None and call.base != gate:
                        continue
                    if call.name == "wait" and call.base in (
                            f"self.{own_attr}", own_attr):
                        # Condition.wait on the scope's own lock
                        # releases it — the sanctioned pattern
                        continue
                    findings.append(BLOCKING_CALL_UNDER_LOCK.make(
                        module.path, call.lineno, fn.qualname,
                        f"{_BLOCKING_ATTRS[call.name]} "
                        f"('.{call.name}()') runs while holding "
                        f"{scope.lock}; every other acquirer stalls "
                        f"behind it",
                        hint="move the wait outside the critical section "
                             "(publish a handle under the lock, block "
                             "after releasing), or justify it in the "
                             "contract's blocking_allowed"))
                elif call.kind == "name" and call.name in _BLOCKING_NAMES:
                    findings.append(BLOCKING_CALL_UNDER_LOCK.make(
                        module.path, call.lineno, fn.qualname,
                        f"{_BLOCKING_NAMES[call.name]} "
                        f"('{call.name}(...)') runs while holding "
                        f"{scope.lock}; every other acquirer stalls "
                        f"behind it",
                        hint="perform the I/O before or after the "
                             "critical section, or justify it in the "
                             "contract's blocking_allowed"))
    return findings


def lock_graph_for(model: ProjectModel,
                   contract: ConcurrencyContract) -> LockGraph:
    """Alias used by the CLI; kept separate so callers reading the
    engine see one name for 'the graph the CI gate asserts over'."""
    return build_lock_graph(model, contract)


__all__: Sequence[str] = (
    "LockNode", "LockEdge", "LockGraph",
    "build_lock_graph", "find_deadlocks", "lock_graph_for",
)
