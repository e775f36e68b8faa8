"""AST inventory over the repo's own source.

Parses every analyzed file once and extracts, per function, the facts
the three analyzer passes consume:

* write sites against module-level mutable globals and ``self``
  attributes (assignments, subscript stores, augmented assignments,
  deletions, and calls to known in-place container mutators);
* which lines sit inside a recognized lock's ``with`` block (module
  locks assigned ``threading.Lock()``/``RLock()``, or ``self`` lock
  attributes assigned in ``__init__`` / named ``*lock``);
* call sites for the call graph (plain names, ``self.method``, and
  attribute calls resolved to every project class defining the method —
  a deliberate over-approximation, safe for a checker);
* concurrency entry points auto-detected from ``executor.submit(f)``,
  ``loop.run_in_executor(ex, f)``, ``initializer=`` on executor/pool
  constructors and ``target=`` on ``Thread`` calls;
* locals assigned from calls (so a method call on such a local can be
  resolved to the class the call returned) and method calls on those
  locals.

Everything is line-based and lexical: the model never imports the code
it analyzes.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.analysis.contract import ConcurrencyContract
from repro.errors import AnalysisError

#: Container methods that mutate their receiver in place.
MUTATING_CALLS = frozenset({
    "append", "extend", "insert", "remove", "discard", "pop", "popitem",
    "clear", "update", "setdefault", "add", "move_to_end", "sort",
    "reverse", "appendleft", "popleft",
})

#: Synchronization-primitive factories and the lock *kind* each yields.
#: ``Condition()`` wraps an RLock by default, so it is re-entrant;
#: semaphores count acquisitions, so a second acquire by the holder
#: deadlocks exactly like a plain ``Lock``.
_LOCK_FACTORIES = {
    "Lock": "Lock",
    "RLock": "RLock",
    "Condition": "Condition",
    "Semaphore": "Semaphore",
    "BoundedSemaphore": "BoundedSemaphore",
}

#: Lock kinds a single thread may acquire twice without deadlocking.
REENTRANT_KINDS = frozenset({"RLock", "Condition"})


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> attr name, else None."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _lock_factory_kind(node: ast.AST) -> Optional[str]:
    """``threading.Lock()`` / ``Condition()`` / ... -> lock kind."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return _LOCK_FACTORIES.get(func.id)
    if isinstance(func, ast.Attribute):
        return _LOCK_FACTORIES.get(func.attr)
    return None


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Class name out of a plain annotation: ``X``, ``"X"``, ``mod.X``.
    Generics/unions resolve to None — better untyped than wrong."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"")
    return None


def _is_mutable_initializer(node: ast.AST) -> bool:
    """Module-level values we treat as shared mutable containers."""
    return isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp, ast.Call))


@dataclass(frozen=True)
class WriteSite:
    """One write against a tracked target."""

    lineno: int
    target: str           #: global name or ``self`` attribute name
    kind: str             #: assign | subscript | augassign | delete | call
    detail: str = ""      #: mutator method name for ``call`` writes
    value_is_local_name: bool = False


@dataclass(frozen=True)
class CallSite:
    """One call, classified for graph resolution."""

    kind: str             #: name | self | attr
    name: str             #: function or method name
    lineno: int
    base: Optional[str] = None   #: receiver name for ``attr`` calls


@dataclass(frozen=True)
class LocalCallAssign:
    """``local = f(...)`` / ``first, _ = f(...)`` — call-derived local."""

    lineno: int
    local: str
    kind: str             #: name | chain
    callee: str           #: ``f`` / ``self.manager``


@dataclass(frozen=True)
class LockDecl:
    """One declared synchronization primitive (module- or class-level)."""

    name: str             #: global name or ``self`` attribute name
    kind: str             #: Lock | RLock | Condition | Semaphore |
                          #: BoundedSemaphore | unknown (``*lock``-named)
    lineno: int


@dataclass(frozen=True)
class LockScope:
    """One ``with <lock>:`` critical section inside a function."""

    lock: str             #: canonical id — ``module:NAME`` / ``Class.attr``
    kind: str             #: lock kind (see :class:`LockDecl`)
    lineno: int           #: line of the ``with`` statement
    lines: FrozenSet[int] = frozenset()   #: lines covered by the body


@dataclass(frozen=True)
class SetIterSite:
    """An order-sensitive iteration over a set-typed expression."""

    lineno: int
    desc: str             #: what is iterated (for the finding message)
    how: str              #: list | tuple | join | comprehension


@dataclass
class FunctionInfo:
    """All analyzer-relevant facts about one function/method."""

    module: str
    name: str
    qualname: str                     #: ``module:Class.method`` form
    class_name: Optional[str]
    lineno: int
    global_writes: List[WriteSite] = field(default_factory=list)
    self_writes: List[WriteSite] = field(default_factory=list)
    guarded_lines: Set[int] = field(default_factory=set)
    calls: List[CallSite] = field(default_factory=list)
    self_calls: Set[str] = field(default_factory=set)
    self_augassigns: Set[str] = field(default_factory=set)
    local_call_assigns: List[LocalCallAssign] = field(default_factory=list)
    lock_scopes: List[LockScope] = field(default_factory=list)
    set_iterations: List[SetIterSite] = field(default_factory=list)
    #: parameter name -> annotated class name (plain ``Name`` /
    #: string-literal annotations only).
    param_types: Dict[str, str] = field(default_factory=dict)
    #: return annotation class name, same restriction.
    returns: Optional[str] = None


@dataclass
class ClassInfo:
    module: str
    name: str
    lineno: int
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self`` lock attribute -> declaration (``in`` works like the
    #: old set; values carry the lock kind for the deadlock pass).
    self_locks: Dict[str, LockDecl] = field(default_factory=dict)
    #: ``self`` attribute -> project class name, from ``self.x = Cls(...)``
    #: or ``self.x = param`` with an annotated ``__init__`` parameter.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: ``self`` attributes assigned a set display / ``set()`` in __init__.
    set_attrs: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    name: str                         #: dotted module name
    path: str                         #: path relative to the root
    source: str
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    #: module lock name -> declaration (``in`` works like the old set).
    module_locks: Dict[str, LockDecl] = field(default_factory=dict)
    #: module global -> class name, from ``NAME = ClassName(...)``.
    global_types: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    entry_exprs: List[Tuple[str, Optional[str], int]] = \
        field(default_factory=list)  #: (name, base-or-None, lineno)

    @property
    def lines(self) -> List[str]:
        return self.source.splitlines()


class _FunctionScanner(ast.NodeVisitor):
    """Single walk over one function body collecting every fact."""

    def __init__(self, info: FunctionInfo, mutable_globals: Set[str],
                 module_locks: Dict[str, LockDecl],
                 self_locks: Dict[str, LockDecl],
                 set_attrs: Optional[Set[str]] = None) -> None:
        self.info = info
        self.mutable_globals = mutable_globals
        self.module_locks = module_locks
        self.self_locks = self_locks
        self.set_attrs = set_attrs if set_attrs is not None else set()
        self.declared_globals: Set[str] = set()
        self._lock_depth = 0
        self._set_locals: Set[str] = set()
        self._sorted_args: Set[int] = set()

    # -- helpers -------------------------------------------------------
    def _lock_identity(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """Canonical (lock id, kind) for a recognized lock expression."""
        if isinstance(node, ast.Name) and node.id in self.module_locks:
            decl = self.module_locks[node.id]
            return f"{self.info.module}:{node.id}", decl.kind
        attr = _self_attr(node)
        if attr is not None and self.info.class_name is not None:
            if attr in self.self_locks:
                return (f"{self.info.class_name}.{attr}",
                        self.self_locks[attr].kind)
            if attr.endswith("lock"):
                # heuristically named guard: recognized as a critical
                # section, but its kind (and identity) is unproven
                return f"{self.info.class_name}.{attr}", "unknown"
        elif attr is not None:
            if attr in self.self_locks:
                return (f"?.{attr}", self.self_locks[attr].kind)
            if attr.endswith("lock"):
                return f"?.{attr}", "unknown"
        return None

    def _record_write(self, lineno: int, base: ast.AST, kind: str,
                      detail: str = "",
                      value_is_local_name: bool = False) -> None:
        attr = _self_attr(base)
        if attr is not None:
            site = WriteSite(lineno, attr, kind, detail, value_is_local_name)
            if self._lock_depth:
                self.info.guarded_lines.add(lineno)
            self.info.self_writes.append(site)
            return
        if isinstance(base, ast.Name) and (
                base.id in self.mutable_globals
                or base.id in self.declared_globals):
            site = WriteSite(lineno, base.id, kind, detail,
                             value_is_local_name)
            if self._lock_depth:
                self.info.guarded_lines.add(lineno)
            self.info.global_writes.append(site)

    def _target_write(self, target: ast.AST, stmt: ast.stmt,
                      value: Optional[ast.AST]) -> None:
        value_is_local = isinstance(value, ast.Name)
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target_write(element, stmt, None)
            return
        if isinstance(target, ast.Subscript):
            self._record_write(stmt.lineno, target.value, "subscript",
                               value_is_local_name=value_is_local)
            return
        if isinstance(target, ast.Attribute):
            attr = _self_attr(target)
            if attr is not None:
                site = WriteSite(stmt.lineno, attr, "assign",
                                 value_is_local_name=value_is_local)
                if self._lock_depth:
                    self.info.guarded_lines.add(stmt.lineno)
                self.info.self_writes.append(site)
            elif isinstance(target.value, ast.Name) and \
                    target.value.id in self.mutable_globals:
                self._record_write(stmt.lineno, target.value, "assign")
            return
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                site = WriteSite(stmt.lineno, target.id, "assign",
                                 value_is_local_name=value_is_local)
                if self._lock_depth:
                    self.info.guarded_lines.add(stmt.lineno)
                self.info.global_writes.append(site)

    # -- determinism facts ---------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        """Lexically set-typed: displays, comprehensions, ``set()`` /
        ``frozenset()`` calls, locals assigned from those, and ``self``
        attributes initialized as sets in ``__init__``."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.Name) and node.id in self._set_locals:
            return True
        attr = _self_attr(node)
        return attr is not None and attr in self.set_attrs

    def _describe_expr(self, node: ast.AST) -> str:
        text = ast.unparse(node)
        return text if len(text) <= 48 else text[:45] + "..."

    def _note_set_iter(self, node: ast.AST, how: str, lineno: int) -> None:
        self.info.set_iterations.append(SetIterSite(
            lineno=lineno, desc=self._describe_expr(node), how=how))

    def _visit_comprehension(self, node: ast.AST) -> None:
        generators = getattr(node, "generators", [])
        if id(node) not in self._sorted_args:
            for gen in generators:
                if self._is_set_expr(gen.iter):
                    self._note_set_iter(gen.iter, "comprehension",
                                        node.lineno)
        self.generic_visit(node)

    # a SetComp over a set yields another set — still order-free — so
    # only order-preserving comprehensions are recorded
    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- statements ----------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.declared_globals.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._target_write(target, node, node.value)
            if isinstance(target, ast.Name) and \
                    self._is_set_expr(node.value):
                self._set_locals.add(target.id)
        self._record_local_call_assign(node.targets, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._target_write(node.target, node, node.value)
            self._record_local_call_assign([node.target], node.value,
                                           node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        attr = _self_attr(target)
        if attr is not None:
            self.info.self_augassigns.add(attr)
            site = WriteSite(node.lineno, attr, "augassign")
            if self._lock_depth:
                self.info.guarded_lines.add(node.lineno)
            self.info.self_writes.append(site)
        elif isinstance(target, ast.Subscript):
            self._record_write(node.lineno, target.value, "augassign")
        elif isinstance(target, ast.Name) and (
                target.id in self.declared_globals):
            site = WriteSite(node.lineno, target.id, "augassign")
            if self._lock_depth:
                self.info.guarded_lines.add(node.lineno)
            self.info.global_writes.append(site)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record_write(node.lineno, target.value, "delete")
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        identities = [identity for item in node.items
                      for identity in [self._lock_identity(item.context_expr)]
                      if identity is not None]
        locked = bool(identities)
        if locked:
            self._lock_depth += 1
            body_lines: Set[int] = set()
            for child in node.body:
                for sub in ast.walk(child):
                    lineno = getattr(sub, "lineno", None)
                    if lineno is not None:
                        body_lines.add(lineno)
            self.info.guarded_lines.update(body_lines)
            for lock_id, kind in identities:
                self.info.lock_scopes.append(LockScope(
                    lock=lock_id, kind=kind, lineno=node.lineno,
                    lines=frozenset(body_lines)))
        self.generic_visit(node)
        if locked:
            self._lock_depth -= 1

    # -- calls ---------------------------------------------------------
    def _record_local_call_assign(self, targets: Sequence[ast.AST],
                                  value: ast.AST, lineno: int) -> None:
        if not isinstance(value, ast.Call):
            return
        local: Optional[str] = None
        for target in targets:
            if isinstance(target, ast.Name):
                local = target.id
                break
            if isinstance(target, (ast.Tuple, ast.List)) and target.elts \
                    and isinstance(target.elts[0], ast.Name):
                local = target.elts[0].id
                break
        if local is None:
            return
        func = value.func
        if isinstance(func, ast.Name):
            self.info.local_call_assigns.append(
                LocalCallAssign(lineno, local, "name", func.id))
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            self.info.local_call_assigns.append(LocalCallAssign(
                lineno, local, "chain", f"{func.value.id}.{func.attr}"))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self.info.calls.append(CallSite("name", func.id, node.lineno))
            if func.id == "sorted":
                for arg in node.args:
                    self._sorted_args.add(id(arg))
            elif func.id in ("list", "tuple") and len(node.args) == 1 and \
                    self._is_set_expr(node.args[0]):
                self._note_set_iter(node.args[0], func.id, node.lineno)
        elif isinstance(func, ast.Attribute):
            base = func.value
            base_attr = _self_attr(base)
            if isinstance(base, ast.Name) and base.id == "self":
                self.info.self_calls.add(func.attr)
                self.info.calls.append(
                    CallSite("self", func.attr, node.lineno))
            else:
                if isinstance(base, ast.Name):
                    receiver: Optional[str] = base.id
                elif base_attr is not None:
                    receiver = f"self.{base_attr}"
                else:
                    receiver = None
                self.info.calls.append(
                    CallSite("attr", func.attr, node.lineno, base=receiver))
                if func.attr in MUTATING_CALLS:
                    self._record_write(node.lineno, base, "call",
                                       detail=func.attr)
                if func.attr == "join" and len(node.args) == 1 and \
                        self._is_set_expr(node.args[0]):
                    self._note_set_iter(node.args[0], "join", node.lineno)
        self.generic_visit(node)

    # nested defs share the enclosing function's fact sheet (closures
    # still run on the worker), but are not separate graph nodes
    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.generic_visit(node)


def _entry_targets(call: ast.Call) -> List[ast.AST]:
    """Expressions this call schedules for concurrent execution."""
    func = call.func
    if isinstance(func, ast.Attribute):
        fname = func.attr
    elif isinstance(func, ast.Name):
        fname = func.id
    else:
        fname = ""
    out: List[ast.AST] = []
    if fname == "submit" and call.args:
        out.append(call.args[0])
    if fname == "run_in_executor" and len(call.args) >= 2:
        out.append(call.args[1])
    for keyword in call.keywords:
        if keyword.arg == "initializer" and (
                "Executor" in fname or "Pool" in fname):
            out.append(keyword.value)
        if keyword.arg == "target" and "Thread" in fname:
            out.append(keyword.value)
    return out


def _scan_module(name: str, path: str, source: str) -> ModuleInfo:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:  # pragma: no cover - analyzed code parses
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    info = ModuleInfo(name=name, path=path, source=source)

    # module-level globals and locks
    for stmt in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name) or value is None:
                continue
            kind = _lock_factory_kind(value)
            if kind is not None:
                info.module_locks[target.id] = LockDecl(
                    name=target.id, kind=kind, lineno=stmt.lineno)
            elif _is_mutable_initializer(value):
                info.mutable_globals[target.id] = stmt.lineno
                if isinstance(value, ast.Call) and \
                        isinstance(value.func, ast.Name):
                    info.global_types[target.id] = value.func.id

    # class inventory: methods + self locks
    def scan_function(node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                      class_info: Optional[ClassInfo]) -> FunctionInfo:
        class_name = class_info.name if class_info else None
        qual = f"{name}:{class_name}.{node.name}" if class_name \
            else f"{name}:{node.name}"
        fn = FunctionInfo(module=name, name=node.name, qualname=qual,
                          class_name=class_name, lineno=node.lineno)
        for arg in (list(node.args.posonlyargs) + list(node.args.args)
                    + list(node.args.kwonlyargs)):
            annotated = _annotation_name(arg.annotation)
            if annotated is not None:
                fn.param_types[arg.arg] = annotated
        fn.returns = _annotation_name(node.returns)
        self_locks = class_info.self_locks if class_info else {}
        set_attrs = class_info.set_attrs if class_info else set()
        scanner = _FunctionScanner(fn, set(info.mutable_globals),
                                   info.module_locks, self_locks,
                                   set_attrs=set_attrs)
        for child in node.body:
            scanner.visit(child)
        return fn

    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(module=name, name=stmt.name, lineno=stmt.lineno)
            # first pass: find the lock attributes so every method's
            # guard recognition sees them; alongside, record attribute
            # types (``self.x = ClassName(...)`` / annotated parameter
            # pass-through) and set-typed attributes for the
            # deadlock/determinism passes
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) and \
                        member.name == "__init__":
                    param_types: Dict[str, str] = {}
                    for arg in (list(member.args.posonlyargs)
                                + list(member.args.args)
                                + list(member.args.kwonlyargs)):
                        annotated = _annotation_name(arg.annotation)
                        if annotated is not None:
                            param_types[arg.arg] = annotated
                    for sub in ast.walk(member):
                        if not isinstance(sub, ast.Assign):
                            continue
                        value = sub.value
                        kind = _lock_factory_kind(value)
                        for target in sub.targets:
                            attr = _self_attr(target)
                            if attr is None:
                                continue
                            if kind is not None:
                                cls.self_locks[attr] = LockDecl(
                                    name=attr, kind=kind, lineno=sub.lineno)
                            elif isinstance(value, ast.Call) and \
                                    isinstance(value.func, ast.Name):
                                cls.attr_types[attr] = value.func.id
                            elif isinstance(value, ast.Name) and \
                                    value.id in param_types:
                                cls.attr_types[attr] = param_types[value.id]
                            if isinstance(value, (ast.Set, ast.SetComp)) \
                                    or (isinstance(value, ast.Call)
                                        and isinstance(value.func, ast.Name)
                                        and value.func.id in
                                        ("set", "frozenset")):
                                cls.set_attrs.add(attr)
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    fn = scan_function(member, cls)
                    cls.methods[member.name] = fn
                    info.functions[fn.qualname] = fn
            info.classes[stmt.name] = cls
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = scan_function(stmt, None)
            info.functions[fn.qualname] = fn

    # entry points: every call anywhere in the module
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for target in _entry_targets(node):
                if isinstance(target, ast.Name):
                    info.entry_exprs.append((target.id, None, node.lineno))
                elif isinstance(target, ast.Attribute):
                    base = target.value
                    receiver = base.id if isinstance(base, ast.Name) else None
                    info.entry_exprs.append(
                        (target.attr, receiver, node.lineno))
    return info


@dataclass
class ProjectModel:
    """The parsed project plus its resolved call graph."""

    root: str
    modules: Dict[str, ModuleInfo]
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    classes_by_name: Dict[str, ClassInfo] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for module in self.modules.values():
            self.functions.update(module.functions)
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, cls)
                for mname, fn in cls.methods.items():
                    self.methods_by_name.setdefault(mname, []).append(
                        fn.qualname)

    # -- resolution ----------------------------------------------------
    def _resolve_name(self, module: ModuleInfo, name: str) -> List[str]:
        """A plain-name call: same-module function or class __init__."""
        out: List[str] = []
        qual = f"{module.name}:{name}"
        if qual in self.functions:
            out.append(qual)
        cls = module.classes.get(name)
        if cls is not None and "__init__" in cls.methods:
            out.append(cls.methods["__init__"].qualname)
        if not out:
            # cross-module: any project module defining the function;
            # over-approximate rather than model the import table
            for other in self.modules.values():
                qual = f"{other.name}:{name}"
                if qual in self.functions:
                    out.append(qual)
                cls = other.classes.get(name)
                if cls is not None and "__init__" in cls.methods:
                    out.append(cls.methods["__init__"].qualname)
        return out

    def _resolve_call(self, fn: FunctionInfo, call: CallSite) -> List[str]:
        module = self.modules[fn.module]
        if call.kind == "name":
            return self._resolve_name(module, call.name)
        if call.kind == "self" and fn.class_name is not None:
            cls = module.classes.get(fn.class_name)
            if cls is not None and call.name in cls.methods:
                return [cls.methods[call.name].qualname]
        # attribute call (or unresolved self call): every project class
        # defining the method — the safe over-approximation
        return list(self.methods_by_name.get(call.name, ()))

    def _receiver_class(self, fn: FunctionInfo,
                        call: CallSite) -> Optional[ClassInfo]:
        """The project class a typed attribute call's receiver holds."""
        if call.base is None:
            return None
        module = self.modules[fn.module]
        if call.base.startswith("self."):
            if fn.class_name is None:
                return None
            cls = module.classes.get(fn.class_name)
            if cls is None:
                return None
            target = cls.attr_types.get(call.base[len("self."):])
            return self.classes_by_name.get(target) if target else None
        # an annotated parameter of this function
        annotated = fn.param_types.get(call.base)
        if annotated is not None:
            return self.classes_by_name.get(annotated)
        # a module global holding a constructed instance
        ctor = module.global_types.get(call.base)
        if ctor is not None and ctor in self.classes_by_name:
            return self.classes_by_name[ctor]
        # a local assigned from a constructor / annotated-return call
        for assign in fn.local_call_assigns:
            if assign.local != call.base:
                continue
            if assign.kind == "name":
                if assign.callee in self.classes_by_name:
                    return self.classes_by_name[assign.callee]
                for qual in self._resolve_name(module, assign.callee):
                    target = self.functions.get(qual)
                    if target is not None and target.returns is not None:
                        hit = self.classes_by_name.get(target.returns)
                        if hit is not None:
                            return hit
            elif assign.kind == "chain" and \
                    assign.callee.startswith("self.") and \
                    fn.class_name is not None:
                cls = module.classes.get(fn.class_name)
                method = cls.methods.get(assign.callee[len("self."):]) \
                    if cls is not None else None
                if method is not None and method.returns is not None:
                    return self.classes_by_name.get(method.returns)
        return None

    def resolve_call_typed(self, fn: FunctionInfo,
                           call: CallSite) -> List[str]:
        """Precise call resolution for the deadlock/determinism passes.

        Unlike :meth:`_resolve_call` — which over-approximates attribute
        calls to every project class defining the method — this resolves
        only calls whose receiver is known: plain names, ``self``
        methods, and attribute calls on receivers whose class the
        inventory typed (``self.x = Cls(...)``, annotated ``__init__``
        parameter pass-through, module globals, constructor locals).
        Unknown receivers resolve to nothing; a lock-order graph built
        from invented edges would drown real inversions in noise.
        """
        module = self.modules[fn.module]
        if call.kind == "name":
            return self._resolve_name(module, call.name)
        if call.kind == "self" and fn.class_name is not None:
            cls = module.classes.get(fn.class_name)
            if cls is not None and call.name in cls.methods:
                return [cls.methods[call.name].qualname]
            return []
        if call.kind == "attr":
            cls = self._receiver_class(fn, call)
            if cls is not None and call.name in cls.methods:
                return [cls.methods[call.name].qualname]
        return []

    def entry_points(self, contract: ConcurrencyContract) -> Set[str]:
        seeds: Set[str] = set()
        for module in self.modules.values():
            for name, base, _lineno in module.entry_exprs:
                if base == "self" or base is None:
                    seeds.update(self._resolve_name(module, name))
                if base is not None:
                    seeds.update(self.methods_by_name.get(name, ()))
        for qual in contract.extra_entry_points:
            if qual in self.functions:
                seeds.add(qual)
        return seeds

    def reachable(self, contract: ConcurrencyContract) -> Set[str]:
        """Functions reachable from any concurrency entry point."""
        seen: Set[str] = set()
        work = sorted(self.entry_points(contract))
        while work:
            qual = work.pop()
            if qual in seen:
                continue
            seen.add(qual)
            fn = self.functions.get(qual)
            if fn is None:
                continue
            for call in fn.calls:
                for target in self._resolve_call(fn, call):
                    if target not in seen:
                        work.append(target)
        return seen


def _module_name(relpath: str) -> str:
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    dotted = stem.replace(os.sep, ".").replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(os.path.abspath(path))
            continue
        if not os.path.isdir(path):
            raise AnalysisError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    out.append(os.path.abspath(
                        os.path.join(dirpath, filename)))
    return sorted(set(out))


def build_model(files: Sequence[str], root: str) -> ProjectModel:
    """Parse ``files`` (absolute paths) into a :class:`ProjectModel`."""
    root = os.path.abspath(root)
    modules: Dict[str, ModuleInfo] = {}
    for path in files:
        rel = os.path.relpath(path, root)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        info = _scan_module(_module_name(rel), rel, source)
        modules[info.name] = info
    return ProjectModel(root=root, modules=modules)
