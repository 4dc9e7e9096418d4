"""Project symbol table + call graph for the SL2xx analyses.

The per-file SL0xx rules see one module at a time; the concurrency and
contract rules (SL201–SL205) need *whole-program* facts: which class a
``self.queue`` attribute holds, which function a call resolves to, and
what is transitively reachable from an ``async def``.  This module
builds those facts once per :func:`~repro.lint.engine.run_lint`
invocation, from the already-parsed module set — no imports are
executed, everything is static.

Resolution is deliberately *typed-but-cheap*: it follows constructor
assignments (``self.queue = JobQueue(...)``), parameter / attribute
annotations, and function return annotations, all restricted to
classes defined in the scanned tree.  Anything it cannot resolve
becomes either an *external* call (with the dotted origin recovered
through the module's imports — ``time.sleep``, ``threading.Lock``) or
an anonymous method call recorded as ``".name"``.  Rules treat
unresolved calls conservatively in whichever direction keeps them
quiet: a lint earns trust by underclaiming.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.engine import ModuleSource

#: Origins whose construction marks an attribute as a thread lock
#: (SL202's guarded-region anchors, SL203's fork-unsafe payloads).
LOCK_ORIGINS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
})


def walk_executed(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's *executed* body.

    Like ``ast.walk`` but nested ``def``/``lambda`` subtrees are not
    descended into: defining a closure executes nothing, so a call
    inside one must not become a call edge of the enclosing function
    (that is exactly how ``run_in_executor(None, helper)`` offloads
    work without the helper's blocking calls tainting the coroutine).
    """
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def module_dotted(rel: str) -> str:
    """``service/queue.py`` -> ``service.queue`` (packages drop ``__init__``)."""
    dotted = rel[:-3] if rel.endswith(".py") else rel
    dotted = dotted.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _annotation_name(node: ast.expr | None) -> str | None:
    """The class name an annotation denotes, if it is a plain name.

    Handles ``Foo``, ``"Foo"`` (string annotations), ``mod.Foo`` (the
    leaf), and ``Optional[Foo]`` / ``Foo | None`` unions with a single
    concrete member.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip()
        return name.split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        if node.value.id in ("Optional",):
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        right = _annotation_name(node.right)
        candidates = [c for c in (left, right) if c and c != "None"]
        return candidates[0] if len(candidates) == 1 else None
    return None


@dataclass
class CallEdge:
    """One call site inside a function.

    Exactly one of ``target`` (a project function) or ``external`` (a
    dotted origin like ``time.sleep``, the bare builtin name, or an
    anonymous ``".method"`` form) is set.
    """

    node: ast.Call
    target: "FunctionInfo | None" = None
    external: str | None = None


@dataclass(eq=False)  # identity semantics: each info IS its graph node
class FunctionInfo:
    """One function or method in the scanned tree."""

    name: str
    qualname: str  # "service/queue.py::JobQueue.submit"
    rel: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None  # enclosing class simple name, if a method
    is_async: bool = False
    calls: list[CallEdge] = field(default_factory=list)
    return_class: str | None = None  # project class name, when annotated

    @property
    def label(self) -> str:
        """Human-facing name (``JobQueue.submit`` / ``run_cell``)."""
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass(eq=False)  # identity semantics, usable as a dict key
class ClassInfo:
    """One class in the scanned tree, with inferred attribute types."""

    name: str
    rel: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> project class simple name
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute name -> external dotted origin of its constructor
    attr_origins: dict[str, str] = field(default_factory=dict)

    @property
    def lock_attrs(self) -> set[str]:
        """Attributes assigned a ``threading`` lock object."""
        return {
            attr for attr, origin in self.attr_origins.items()
            if origin in LOCK_ORIGINS
        }


class Project:
    """The whole-program symbol table + call graph."""

    def __init__(self, modules: Iterable[ModuleSource]):
        self.modules: list[ModuleSource] = list(modules)
        #: simple class name -> every ClassInfo with that name
        self.classes: dict[str, list[ClassInfo]] = {}
        #: every function/method, in definition order
        self.functions: list[FunctionInfo] = []
        #: "dotted.path" (both rel-derived and repro.-prefixed) -> info
        self._by_dotted: dict[str, FunctionInfo | ClassInfo] = {}
        #: rel -> {local name -> dotted origin} import maps
        self._aliases: dict[str, dict[str, str]] = {}
        #: rel -> {top-level function name -> FunctionInfo}
        self._module_funcs: dict[str, dict[str, FunctionInfo]] = {}
        self._collect()
        self._link()

    # ------------------------------------------------------------------
    # Pass 1: symbols
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        from repro.lint.rules import import_aliases

        for module in self.modules:
            self._aliases[module.rel] = import_aliases(module.tree)
            self._module_funcs[module.rel] = {}
            dotted = module_dotted(module.rel)
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = self._add_function(module.rel, node, cls=None)
                    self._module_funcs[module.rel][node.name] = info
                    self._register_dotted(f"{dotted}.{node.name}", info)
                elif isinstance(node, ast.ClassDef):
                    cls = self._add_class(module.rel, node)
                    self._register_dotted(f"{dotted}.{node.name}", cls)

    def _register_dotted(self, dotted: str, info) -> None:
        self._by_dotted.setdefault(dotted, info)
        # The scan root is usually the `repro` package dir, so imports
        # say `repro.service.queue` while rels say `service/queue.py`.
        self._by_dotted.setdefault(f"repro.{dotted}", info)

    def _add_function(
        self, rel: str, node, cls: str | None
    ) -> FunctionInfo:
        qual = f"{rel}::{cls + '.' if cls else ''}{node.name}"
        info = FunctionInfo(
            name=node.name, qualname=qual, rel=rel, node=node, cls=cls,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            return_class=_annotation_name(node.returns),
        )
        self.functions.append(info)
        return info

    def _add_class(self, rel: str, node: ast.ClassDef) -> ClassInfo:
        cls = ClassInfo(
            name=node.name, rel=rel, node=node,
            bases=[b for b in map(_annotation_name, node.bases) if b],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = self._add_function(
                    rel, stmt, cls=node.name,
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                # Dataclass-style field annotations.
                name = _annotation_name(stmt.annotation)
                if name:
                    cls.attr_types[stmt.target.id] = name
        self.classes.setdefault(node.name, []).append(cls)
        return cls

    # ------------------------------------------------------------------
    # Pass 2: attribute types, then call edges
    # ------------------------------------------------------------------

    def _link(self) -> None:
        # Attribute types first (edges resolve through them), iterated
        # to a small fixpoint so `self.a = other.make_b()` can use
        # return annotations discovered in the same pass.
        for _ in range(2):
            for cls in self._all_classes():
                self._infer_attr_types(cls)
        for fn in self.functions:
            self._resolve_calls(fn)

    def _all_classes(self) -> Iterator[ClassInfo]:
        for infos in self.classes.values():
            yield from infos

    def class_named(self, name: str | None, rel: str | None = None) -> ClassInfo | None:
        """The unique class with this simple name (prefer same module)."""
        infos = self.classes.get(name or "")
        if not infos:
            return None
        if rel is not None:
            same = [c for c in infos if c.rel == rel]
            if len(same) == 1:
                return same[0]
        return infos[0] if len(infos) == 1 else None

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        aliases = self._aliases.get(cls.rel, {})
        for method in cls.methods.values():
            # `self.queue = queue` with an annotated `queue: JobQueue`
            # parameter (or constructor-typed local) is the dominant
            # dependency-injection idiom — resolve the Name RHS through
            # the method's local typing environment.
            env = self._local_types(method, aliases)
            for node in ast.walk(method.node):
                target = None
                value = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        name = _annotation_name(node.annotation)
                        if name and name in self.classes:
                            cls.attr_types.setdefault(target.attr, name)
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                info: ClassInfo | str | None
                if isinstance(value, ast.Name):
                    info = env.get(value.id)
                else:
                    info = self._value_type(value, cls, aliases)
                if isinstance(info, ClassInfo):
                    cls.attr_types.setdefault(target.attr, info.name)
                elif isinstance(info, str):
                    cls.attr_origins.setdefault(target.attr, info)

    def _value_type(
        self, value: ast.expr | None, cls: ClassInfo | None,
        aliases: dict[str, str],
    ) -> ClassInfo | str | None:
        """What a RHS constructs: a project class, or an external origin."""
        if not isinstance(value, ast.Call):
            return None
        from repro.lint.rules import dotted_name, resolve_origin

        func = value.func
        if isinstance(func, ast.Name):
            target = self.classes.get(func.id)
            if target:
                return self.class_named(func.id, cls.rel if cls else None)
            origin = aliases.get(func.id)
            if origin is not None:
                resolved = self._by_dotted.get(origin)
                if isinstance(resolved, ClassInfo):
                    return resolved
                if isinstance(resolved, FunctionInfo):
                    return self.class_named(resolved.return_class, resolved.rel)
                return origin
            return None
        if isinstance(func, ast.Attribute):
            origin = resolve_origin(func, aliases)
            if origin is not None:
                resolved = self._by_dotted.get(origin)
                if isinstance(resolved, ClassInfo):
                    return resolved
                return origin
            # `self.make_thing()` — use the method's return annotation.
            dotted = dotted_name(func.value)
            if dotted == "self" and cls is not None:
                method = self._method(cls, func.attr)
                if method is not None and method.return_class:
                    return self.class_named(method.return_class, method.rel)
        return None

    def _method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Method lookup through the (name-resolved) base classes."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop()
            if cur.name in seen:
                continue
            seen.add(cur.name)
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.bases:
                base_cls = self.class_named(base, cur.rel)
                if base_cls is not None:
                    stack.append(base_cls)
        return None

    # ------------------------------------------------------------------
    # Call-edge resolution
    # ------------------------------------------------------------------

    def _local_types(
        self, fn: FunctionInfo, aliases: dict[str, str],
    ) -> dict[str, ClassInfo]:
        """Flow-insensitive local-variable typing for one function."""
        cls = self.class_named(fn.cls, fn.rel)
        env: dict[str, ClassInfo] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            name = _annotation_name(arg.annotation)
            typed = self.class_named(name, fn.rel)
            if typed is not None:
                env[arg.arg] = typed
        for node in walk_executed(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    info = self._value_type(node.value, cls, aliases)
                    if isinstance(info, ClassInfo):
                        env[target.id] = info
                    else:
                        env.pop(target.id, None)
        return env

    def expr_class(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        env: dict[str, ClassInfo] | None = None,
    ) -> ClassInfo | None:
        """The project class an expression evaluates to, if inferable."""
        aliases = self._aliases.get(fn.rel, {})
        if env is None:
            env = self._local_types(fn, aliases)
        cls = self.class_named(fn.cls, fn.rel)
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return cls
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.expr_class(expr.value, fn, env)
            if owner is not None:
                attr_type = owner.attr_types.get(expr.attr)
                return self.class_named(attr_type, owner.rel)
            return None
        if isinstance(expr, ast.Call):
            edge_target = self._resolve_call_target(expr, fn, env)
            if isinstance(edge_target, ClassInfo):
                return edge_target
            if isinstance(edge_target, FunctionInfo) and edge_target.return_class:
                return self.class_named(
                    edge_target.return_class, edge_target.rel,
                )
        return None

    def _resolve_call_target(
        self,
        call: ast.Call,
        fn: FunctionInfo,
        env: dict[str, ClassInfo],
    ) -> FunctionInfo | ClassInfo | str | None:
        """The project function/class a call hits, or its external origin."""
        from repro.lint.rules import resolve_origin

        aliases = self._aliases.get(fn.rel, {})
        func = call.func
        if isinstance(func, ast.Name):
            local = self._module_funcs.get(fn.rel, {}).get(func.id)
            if local is not None:
                return local
            cls = self.class_named(func.id, fn.rel)
            if cls is not None and func.id in self.classes:
                return cls
            origin = aliases.get(func.id)
            if origin is not None:
                resolved = self._by_dotted.get(origin)
                return resolved if resolved is not None else origin
            return func.id  # builtin (open, sorted, ...)
        if isinstance(func, ast.Attribute):
            origin = resolve_origin(func, aliases)
            if origin is not None:
                resolved = self._by_dotted.get(origin)
                return resolved if resolved is not None else origin
            owner = self.expr_class(func.value, fn, env)
            if owner is not None:
                method = self._method(owner, func.attr)
                if method is not None:
                    return method
                return f".{func.attr}"
            return f".{func.attr}"
        return None

    def local_env(self, fn: FunctionInfo) -> dict[str, ClassInfo]:
        """Public view of one function's local-variable typing."""
        return self._local_types(fn, self._aliases.get(fn.rel, {}))

    def _resolve_calls(self, fn: FunctionInfo) -> None:
        aliases = self._aliases.get(fn.rel, {})
        env = self._local_types(fn, aliases)
        for node in walk_executed(fn.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve_call_target(node, fn, env)
            if isinstance(resolved, FunctionInfo):
                fn.calls.append(CallEdge(node=node, target=resolved))
            elif isinstance(resolved, ClassInfo):
                init = self._method(resolved, "__init__")
                if init is not None:
                    fn.calls.append(CallEdge(node=node, target=init))
                else:
                    fn.calls.append(
                        CallEdge(node=node, external=f"class:{resolved.name}")
                    )
            elif isinstance(resolved, str):
                fn.calls.append(CallEdge(node=node, external=resolved))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Resolved project-internal call edges (for --stats)."""
        return sum(
            1 for fn in self.functions for e in fn.calls if e.target is not None
        )

    def aliases_for(self, rel: str) -> dict[str, str]:
        """The import-alias map of one module."""
        return self._aliases.get(rel, {})


def build_project(modules: Iterable[ModuleSource]) -> Project:
    """Build the symbol table + call graph for a parsed module set."""
    return Project(modules)
