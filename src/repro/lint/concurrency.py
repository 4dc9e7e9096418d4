"""simlint concurrency rules SL201–SL203 (whole-program).

These are the rules the service era needs: they consume the
:mod:`~repro.lint.callgraph` symbol table instead of a single module,
so a sync helper three calls away from a coroutine is judged in the
coroutine's context.  All three run through :meth:`Rule.check_project`
once per lint invocation.

* **SL201** — blocking calls (``time.sleep``, ``http.client``,
  synchronous file I/O, ``Executor.submit(...).result()``) reachable
  from any ``async def`` defined under ``service/``.  The finding
  lands on the blocking *call site* (which may be outside service/)
  and names the coroutine plus the call chain that reaches it.
* **SL202** — lock-discipline inference: any attribute a class writes
  under ``with self._lock:`` is *guarded*; every other access to it —
  in the class outside a lock region, or from another class through a
  typed attribute — is a finding unless the line carries a
  ``# sl: guarded-by(<lock>)`` annotation.
* **SL203** — fork-safety: objects whose classes hold locks, sockets,
  or Tracer/EventLog sinks must not be captured into
  ``ProcessPoolExecutor.submit(...)`` arguments or pool
  ``initializer=`` callables (they either fail to pickle or, worse,
  pickle into a child that inherits a meaningless lock state).
"""

from __future__ import annotations

import ast
import re
from collections import deque
from typing import Iterator

from repro.lint.callgraph import (
    ClassInfo,
    FunctionInfo,
    Project,
    walk_executed,
)
from repro.lint.engine import Finding, LintContext, ModuleSource, Rule
from repro.lint.rules import (
    _finding,
    ancestors,
    attach_parents,
    dotted_name,
)

#: Modules whose ``async def``s are SL201 entry points.
SERVICE_SCOPE = "service/"

#: Dotted origins that block the calling thread (and thus the event
#: loop when reached from a coroutine without an executor hop).
BLOCKING_ORIGINS = {
    "time.sleep": "sleeps the thread for its full duration",
    "urllib.request.urlopen": "synchronous HTTP request",
    "socket.create_connection": "synchronous TCP connect",
    "subprocess.run": "waits for a subprocess",
    "subprocess.call": "waits for a subprocess",
    "subprocess.check_call": "waits for a subprocess",
    "subprocess.check_output": "waits for a subprocess",
}

#: Method names that mean synchronous file I/O on their receiver
#: (``Path.write_text`` and friends) when the receiver's type is
#: unknown — recorded by the call graph as anonymous ``".name"`` calls.
BLOCKING_IO_METHODS = frozenset({
    ".write_text", ".read_text", ".write_bytes", ".read_bytes",
})

#: ``# sl: guarded-by(<lock>)`` — the SL202 escape hatch asserting a
#: lock-free access is in fact protected (e.g. by construction order).
GUARD_COMMENT = re.compile(r"#\s*sl:\s*guarded-by\(([^)]*)\)")

#: Receiver-method calls that mutate the receiver in place (SL202
#: counts ``self.jobs.pop(...)`` under a lock as a guarded write).
MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "extend", "insert",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "setdefault", "sort",
})


def _module_map(ctx: LintContext) -> dict[str, ModuleSource]:
    return {m.rel: m for m in ctx.modules}


def _has_guard_comment(module: ModuleSource, line: int) -> bool:
    if 1 <= line <= len(module.lines):
        return GUARD_COMMENT.search(module.lines[line - 1]) is not None
    return False


class AsyncBlockingRule(Rule):
    """SL201: blocking call reachable from a service coroutine."""

    id = "SL201"
    title = "blocking call reachable from async def in service/"
    rationale = (
        "A coroutine that blocks — time.sleep, http.client, synchronous "
        "file I/O, Future.result() — stalls the whole event loop: every "
        "other request, worker, and stream on the server freezes for "
        "the duration.  Offload with loop.run_in_executor (the callable "
        "is passed, not called, so the call graph sees the hop)."
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """BFS the call graph from every service coroutine."""
        project: Project = ctx.project()
        modules = _module_map(ctx)
        parent: dict[FunctionInfo, FunctionInfo | None] = {}
        visited: dict[FunctionInfo, FunctionInfo] = {}
        order: list[FunctionInfo] = []
        for entry in project.functions:
            if not (entry.is_async and entry.rel.startswith(SERVICE_SCOPE)):
                continue
            if self.is_exempt(entry.rel) or entry in visited:
                continue
            visited[entry] = entry
            parent[entry] = None
            queue = deque([entry])
            while queue:
                fn = queue.popleft()
                order.append(fn)
                for edge in fn.calls:
                    target = edge.target
                    if target is None or target in visited:
                        continue
                    visited[target] = entry
                    parent[target] = fn
                    queue.append(target)
        seen: set[tuple[str, int, int]] = set()
        for fn in order:
            module = modules.get(fn.rel)
            if module is None or self.is_exempt(fn.rel):
                continue
            for node, reason in self._blocking_calls(fn):
                key = (fn.rel, node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                chain = self._chain(fn, parent)
                entry = visited[fn]
                via = f" via {chain}" if " -> " in chain else ""
                yield _finding(
                    self, module, node,
                    f"blocking call ({reason}) reachable from async def "
                    f"{entry.label}{via}; move it off the event loop "
                    f"with loop.run_in_executor",
                )

    def _blocking_calls(
        self, fn: FunctionInfo
    ) -> Iterator[tuple[ast.Call, str]]:
        for edge in fn.calls:
            external = edge.external
            if external is None:
                continue
            if external in BLOCKING_ORIGINS:
                yield edge.node, BLOCKING_ORIGINS[external]
            elif external.startswith("http.client."):
                yield edge.node, "synchronous HTTP request"
            elif external == "open" or external in BLOCKING_IO_METHODS:
                yield edge.node, "synchronous file I/O"
        # Executor.submit(...).result(): the await-free way to wedge
        # a loop behind its own pool.
        for node in walk_executed(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "result"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Attribute)
                and node.func.value.func.attr == "submit"
            ):
                yield node, "synchronous wait on an executor future"

    @staticmethod
    def _chain(fn: FunctionInfo, parent: dict) -> str:
        parts: list[str] = []
        cur: FunctionInfo | None = fn
        while cur is not None:
            parts.append(cur.label)
            cur = parent.get(cur)
        parts.reverse()
        if len(parts) > 5:
            parts = parts[:2] + ["..."] + parts[-2:]
        return " -> ".join(parts)


class LockDisciplineRule(Rule):
    """SL202: guarded attribute accessed without its lock."""

    id = "SL202"
    title = "lock-guarded attribute accessed lock-free"
    rationale = (
        "If any method writes an attribute under `with self._lock:`, "
        "that attribute's invariants are lock-protected — reading or "
        "writing it without the lock (from the class or through a "
        "typed attribute in another class) races the guarded writers. "
        "Wrap the access, route it through a locked accessor, or "
        "annotate the line `# sl: guarded-by(<lock>)` when protection "
        "is structural."
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """Infer guarded attribute sets, then audit every access."""
        project: Project = ctx.project()
        modules = _module_map(ctx)
        for module in ctx.modules:
            attach_parents(module.tree)
        guarded: dict[ClassInfo, set[str]] = {}
        locked_classes: list[ClassInfo] = []
        for infos in project.classes.values():
            for cls in infos:
                if not cls.lock_attrs:
                    continue
                attrs = self._guarded_attrs(cls)
                if attrs:
                    locked_classes.append(cls)
                    guarded[cls] = attrs
        if not locked_classes:
            return
        held = {cls: self._held_methods(project, cls)
                for cls in locked_classes}
        # In-class audit.
        for cls in locked_classes:
            module = modules.get(cls.rel)
            if module is None or self.is_exempt(cls.rel):
                continue
            yield from self._audit_class(
                cls, guarded[cls], held[cls], module,
            )
        # Cross-class audit: accesses through typed attributes/locals.
        attr_owners: dict[str, list[ClassInfo]] = {}
        for cls in locked_classes:
            for attr in guarded[cls]:
                attr_owners.setdefault(attr, []).append(cls)
        for fn in project.functions:
            module = modules.get(fn.rel)
            if module is None or self.is_exempt(fn.rel):
                continue
            yield from self._audit_foreign(
                project, fn, attr_owners, guarded, module,
            )

    # -- guarded-set inference -----------------------------------------

    def _guarded_attrs(self, cls: ClassInfo) -> set[str]:
        """Attributes written under any ``with self.<lock>:`` region."""
        attrs: set[str] = set()
        for method in cls.methods.values():
            for region in self._lock_regions(method.node, cls):
                for node in ast.walk(region):
                    name = self._self_attr_written(node)
                    if name is not None and name not in cls.lock_attrs:
                        attrs.add(name)
        return attrs

    @staticmethod
    def _lock_regions(fn_node: ast.AST, cls: ClassInfo) -> Iterator[ast.AST]:
        for node in ast.walk(fn_node):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in cls.lock_attrs
                ):
                    yield node
                    break

    @staticmethod
    def _self_attr_written(node: ast.AST) -> str | None:
        """The ``self.X`` attribute this node writes/mutates, if any."""
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return None
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return node.attr
        parent = getattr(node, "_simlint_parent", None)
        # self.X[...] = ... / del self.X[...]
        if isinstance(parent, ast.Subscript) and isinstance(
            parent.ctx, (ast.Store, ast.Del)
        ):
            return node.attr
        # self.X.append(...)-style in-place mutation.
        if (
            isinstance(parent, ast.Attribute)
            and parent.attr in MUTATING_METHODS
        ):
            grand = getattr(parent, "_simlint_parent", None)
            if isinstance(grand, ast.Call) and grand.func is parent:
                return node.attr
        return None

    # -- held-method inference -----------------------------------------

    def _held_methods(
        self, project: Project, cls: ClassInfo
    ) -> set[FunctionInfo]:
        """Methods only ever called with the class lock already held.

        Greatest fixpoint: assume every method with at least one call
        site is held, then evict any with a call site that is neither
        inside a lock region, nor in ``__init__``, nor in a held
        method of the same class.  Zero-call-site methods are public
        API and never held.
        """
        sites: dict[FunctionInfo, list[tuple[FunctionInfo, ast.Call]]] = {}
        methods = set(cls.methods.values())
        for fn in project.functions:
            for edge in fn.calls:
                if edge.target is not None and edge.target in methods:
                    sites.setdefault(edge.target, []).append(
                        (fn, edge.node)
                    )
        held = set(sites)
        held.discard(cls.methods.get("__init__"))
        changed = True
        while changed:
            changed = False
            for method in list(held):
                for caller, call in sites[method]:
                    if self._site_guarded(caller, call, cls, held):
                        continue
                    held.discard(method)
                    changed = True
                    break
        return held

    def _site_guarded(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        cls: ClassInfo,
        held: set[FunctionInfo],
    ) -> bool:
        if caller.cls != cls.name or caller.rel != cls.rel:
            return False
        if caller.name == "__init__":
            return True
        caller_method = cls.methods.get(caller.name)
        if caller_method is caller and caller_method in held:
            return True
        return self._under_lock(call, cls)

    # -- audits ---------------------------------------------------------

    def _audit_class(
        self,
        cls: ClassInfo,
        attrs: set[str],
        held: set[FunctionInfo],
        module: ModuleSource,
    ) -> Iterator[Finding]:
        for name, method in cls.methods.items():
            if name == "__init__":
                continue
            if method in held:
                continue
            for node in walk_executed(method.node):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in attrs
                ):
                    continue
                if self._under_lock(node, cls):
                    continue
                if _has_guard_comment(module, node.lineno):
                    continue
                yield _finding(
                    self, module, node,
                    f"{cls.name}.{node.attr} is written under "
                    f"`with self.{sorted(cls.lock_attrs)[0]}:` elsewhere "
                    f"but accessed lock-free in {cls.name}.{name}; hold "
                    f"the lock here or annotate `# sl: guarded-by(...)`",
                )

    @staticmethod
    def _under_lock(node: ast.AST, cls: ClassInfo) -> bool:
        for anc in ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and expr.attr in cls.lock_attrs
                    ):
                        return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False

    def _audit_foreign(
        self,
        project: Project,
        fn: FunctionInfo,
        attr_owners: dict[str, list[ClassInfo]],
        guarded: dict[ClassInfo, set[str]],
        module: ModuleSource,
    ) -> Iterator[Finding]:
        env = project.local_env(fn)
        for node in walk_executed(fn.node):
            if not isinstance(node, ast.Attribute):
                continue
            owners = attr_owners.get(node.attr)
            if not owners:
                continue
            # Same-class self accesses were audited above.
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue
            owner = project.expr_class(node.value, fn, env)
            if owner is None:
                continue
            if not any(o is owner for o in owners):
                continue
            if node.attr not in guarded.get(owner, set()):
                continue
            if self._foreign_under_lock(node, owner):
                continue
            if _has_guard_comment(module, node.lineno):
                continue
            yield _finding(
                self, module, node,
                f"{owner.name}.{node.attr} is lock-guarded inside "
                f"{owner.name} but accessed lock-free from "
                f"{fn.label}; use a locked accessor on {owner.name} "
                f"or annotate `# sl: guarded-by(...)`",
            )

    @staticmethod
    def _foreign_under_lock(node: ast.Attribute, owner: ClassInfo) -> bool:
        """``with self.queue._lock:`` around a ``self.queue.jobs`` use."""
        base = dotted_name(node.value)
        if base is None:
            return False
        want = {f"{base}.{lock}" for lock in owner.lock_attrs}
        for anc in ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    if dotted_name(item.context_expr) in want:
                        return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False


class ForkSafetyRule(Rule):
    """SL203: fork-unsafe object captured into a process pool."""

    id = "SL203"
    title = "lock/socket/sink holder captured into a process pool"
    rationale = (
        "ProcessPoolExecutor pickles submitted callables and arguments "
        "into forked children: an object holding a threading lock, an "
        "open socket, or a Tracer/EventLog sink either fails to pickle "
        "or arrives as a detached copy whose lock state and fds mean "
        "nothing — pass plain data (configs, coordinates) instead."
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """Audit submit()/initializer= sites on process pools."""
        project: Project = ctx.project()
        modules = _module_map(ctx)
        unsafe_cache: dict[ClassInfo, str | None] = {}
        for fn in project.functions:
            module = modules.get(fn.rel)
            if module is None or self.is_exempt(fn.rel):
                continue
            env = project.local_env(fn)
            pools = self._pool_locals(project, fn)
            for node in walk_executed(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                if self._is_pool_submit(project, fn, node, pools, env):
                    for arg in [*node.args, *[k.value for k in node.keywords]]:
                        reason = self._capture_reason(
                            project, fn, env, arg, unsafe_cache,
                        )
                        if reason:
                            yield _finding(
                                self, module, arg,
                                f"process-pool submit() captures {reason}; "
                                f"pass plain picklable data instead",
                            )
                if self._is_pool_factory(project, fn, node, env):
                    for kw in node.keywords:
                        if kw.arg != "initializer":
                            continue
                        reason = self._capture_reason(
                            project, fn, env, kw.value, unsafe_cache,
                        )
                        if reason:
                            yield _finding(
                                self, module, kw.value,
                                f"process-pool initializer captures "
                                f"{reason}; use a module-level function "
                                f"over plain data",
                            )

    # -- pool typing -----------------------------------------------------

    def _pool_locals(self, project: Project, fn: FunctionInfo) -> set[str]:
        """Local names bound to a process pool in this function."""
        pools: set[str] = set()
        aliases = project.aliases_for(fn.rel)
        from repro.lint.rules import resolve_origin

        for node in walk_executed(fn.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            if isinstance(value, ast.Call) and self._is_pool_factory(
                project, fn, value, project.local_env(fn)
            ):
                pools.add(node.targets[0].id)
            elif isinstance(value, ast.Call):
                origin = None
                if isinstance(value.func, (ast.Name, ast.Attribute)):
                    origin = resolve_origin(value.func, aliases) or (
                        aliases.get(value.func.id)
                        if isinstance(value.func, ast.Name) else None
                    )
                if origin and "ProcessPoolExecutor" in origin:
                    pools.add(node.targets[0].id)
        return pools

    def _is_pool_factory(
        self,
        project: Project,
        fn: FunctionInfo,
        call: ast.Call,
        env: dict,
    ) -> bool:
        """ProcessPoolExecutor(...) or warm_pool(...) construction."""
        from repro.lint.rules import resolve_origin

        aliases = project.aliases_for(fn.rel)
        func = call.func
        if isinstance(func, ast.Name):
            origin = aliases.get(func.id)
            if origin and "ProcessPoolExecutor" in origin:
                return True
            if func.id == "warm_pool" or (
                origin and origin.endswith(".warm_pool")
            ):
                return True
        if isinstance(func, ast.Attribute):
            origin = resolve_origin(func, aliases)
            if origin and "ProcessPoolExecutor" in origin:
                return True
            if func.attr == "warm_pool":
                return True
        return False

    def _is_pool_submit(
        self,
        project: Project,
        fn: FunctionInfo,
        call: ast.Call,
        pools: set[str],
        env: dict,
    ) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
            return False
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id in pools:
            return True
        if isinstance(recv, ast.Call) and self._is_pool_factory(
            project, fn, recv, env
        ):
            return True
        # self.<attr> with a ProcessPoolExecutor origin.
        if (
            isinstance(recv, ast.Attribute)
            and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
            and fn.cls is not None
        ):
            cls = project.class_named(fn.cls, fn.rel)
            if cls is not None:
                origin = cls.attr_origins.get(recv.attr, "")
                if "ProcessPoolExecutor" in origin:
                    return True
        return False

    # -- fork-unsafety ---------------------------------------------------

    def _capture_reason(
        self,
        project: Project,
        fn: FunctionInfo,
        env: dict,
        expr: ast.expr,
        cache: dict[ClassInfo, str | None],
    ) -> str | None:
        """Why this argument is fork-unsafe, or None."""
        # A bound method drags its whole instance through pickle.
        if isinstance(expr, ast.Attribute):
            owner = project.expr_class(expr.value, fn, env)
            if owner is not None:
                reason = self._class_unsafe(project, owner, cache)
                if reason:
                    return (
                        f"bound method {owner.name}.{expr.attr} of an "
                        f"instance that {reason}"
                    )
        if isinstance(expr, ast.Lambda):
            for node in ast.walk(expr.body):
                if isinstance(node, ast.Name) and node.id == "self" and \
                        fn.cls is not None:
                    cls = project.class_named(fn.cls, fn.rel)
                    if cls is not None:
                        reason = self._class_unsafe(project, cls, cache)
                        if reason:
                            return (
                                f"a closure over self ({cls.name} "
                                f"{reason})"
                            )
        target = project.expr_class(expr, fn, env)
        if target is not None:
            reason = self._class_unsafe(project, target, cache)
            if reason:
                return f"a {target.name} instance that {reason}"
        return None

    def _class_unsafe(
        self,
        project: Project,
        cls: ClassInfo,
        cache: dict[ClassInfo, str | None],
        depth: int = 0,
    ) -> str | None:
        if cls in cache:
            return cache[cls]
        cache[cls] = None  # cycle guard
        reason: str | None = None
        if cls.lock_attrs:
            reason = f"holds lock(s) {', '.join(sorted(cls.lock_attrs))}"
        if reason is None:
            for attr, origin in sorted(cls.attr_origins.items()):
                if origin.startswith("socket."):
                    reason = f"holds socket {attr}"
                    break
                if origin.startswith(("repro.obs.tracer", "threading.")):
                    reason = f"holds {origin.rsplit('.', 1)[-1]} via {attr}"
                    break
        if reason is None and depth < 3:
            for attr, tname in sorted(cls.attr_types.items()):
                if tname in ("Tracer", "EventLog"):
                    reason = f"holds {tname} sink {attr}"
                    break
                sub = project.class_named(tname, cls.rel)
                if sub is not None and sub is not cls:
                    inner = self._class_unsafe(project, sub, cache, depth + 1)
                    if inner:
                        reason = f"holds a {tname} ({inner}) via {attr}"
                        break
        cache[cls] = reason
        return reason


#: Concurrency rule classes in id order (the engine instantiates these).
CONCURRENCY_RULES = (
    AsyncBlockingRule,
    LockDisciplineRule,
    ForkSafetyRule,
)
