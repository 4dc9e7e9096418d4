"""simlint AST rules SL001–SL006, SL008 and SL009.

Each rule is a small, self-contained AST analysis.  They are
deliberately *heuristic* — a lint pass earns its keep by being cheap
and running on every commit, not by being a type checker — and every
rule has a baseline escape hatch for justified exceptions
(docs/linting.md).  Shared helpers (parent links, import-alias maps,
unordered-expression classification) live at the top.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, LintContext, ModuleSource, Rule

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def attach_parents(tree: ast.Module) -> None:
    """Annotate every node with a ``_simlint_parent`` backlink."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._simlint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> ast.AST | None:
    """The parent node attached by :func:`attach_parents` (or None)."""
    return getattr(node, "_simlint_parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Walk from ``node``'s parent up to the module root."""
    cur = parent_of(node)
    while cur is not None:
        yield cur
        cur = parent_of(cur)


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted origin they import.

    ``import random as r`` maps ``r -> random``; ``from time import
    time`` maps ``time -> time.time``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_origin(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Fully-qualified origin of a Name/Attribute use, via the imports."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin


def _finding(rule: Rule, module: ModuleSource, node: ast.AST, message: str) -> Finding:
    line = getattr(node, "lineno", 0)
    return Finding(
        rule=rule.id, path=module.rel, line=line,
        message=message, snippet=module.snippet(line),
    )


# ---------------------------------------------------------------------------
# SL001 — nondeterminism sources
# ---------------------------------------------------------------------------

#: Fully-qualified callables whose results vary run to run.  Wall-clock
#: *measurement* (``time.perf_counter``) is deliberately absent: it may
#: feed profiling output but never simulated state.
NONDETERMINISTIC_ORIGINS = {
    "time.time": "wall-clock time varies per run",
    "time.time_ns": "wall-clock time varies per run",
    "datetime.datetime.now": "wall-clock time varies per run",
    "datetime.datetime.utcnow": "wall-clock time varies per run",
    "datetime.date.today": "wall-clock date varies per run",
    "os.urandom": "OS entropy is unseedable",
    "uuid.uuid1": "uuid1 mixes clock and MAC address",
    "uuid.uuid4": "uuid4 draws OS entropy",
}


class NondeterminismRule(Rule):
    """SL001: unseeded randomness / wall-clock reads in simulation code."""

    id = "SL001"
    title = "nondeterminism source outside common/rng.py"
    rationale = (
        "Every stochastic decision must draw from a SplitRng stream fixed "
        "by the top-level seed; bare random/time/entropy calls make runs "
        "unreproducible and invalidate the paper's seed-controlled results."
    )
    exempt = ("common/rng.py",)

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag random-module use and wall-clock/entropy call sites."""
        aliases = import_aliases(module.tree)
        attach_parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Only flag *loads* (uses), once, at the outermost chain,
            # and never the import statement itself (the use sites are
            # the actionable findings).
            if not isinstance(node.ctx, ast.Load) or not _outermost_chain(node):
                continue
            origin = resolve_origin(node, aliases)
            if origin is None:
                continue
            if origin == "random" or origin.startswith(("random.", "numpy.random")):
                yield _finding(
                    self, module, node,
                    f"use of {origin!r}: draw from a repro.common.rng.SplitRng "
                    f"stream instead (seeded, splittable)",
                )
            elif origin in NONDETERMINISTIC_ORIGINS:
                yield _finding(
                    self, module, node,
                    f"call to {origin!r}: {NONDETERMINISTIC_ORIGINS[origin]}; "
                    f"simulation state must be a function of the seed",
                )


def _outermost_chain(node: ast.AST) -> bool:
    """True unless ``node`` sits inside a larger attribute chain."""
    parent = parent_of(node)
    return not isinstance(parent, ast.Attribute)


# ---------------------------------------------------------------------------
# SL002 — unordered iteration
# ---------------------------------------------------------------------------

#: Calls that consume an iterable order-insensitively.
ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "sum", "min", "max", "any", "all", "len",
    "set", "frozenset",
})


class UnorderedIterationRule(Rule):
    """SL002: iteration over a set in order-sensitive code."""

    id = "SL002"
    title = "unordered set iteration"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED and insertion "
        "history; feeding it into scheduling, arbitration, or stats "
        "emission silently reorders events between runs.  Wrap the "
        "iterable in sorted() or use an ordered container."
    )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag for-loops/comprehensions whose iterable is a bare set."""
        attach_parents(module.tree)
        for scope in self._scopes(module.tree):
            local_sets = self._local_set_names(scope)
            for node in ast.walk(scope):
                if self._owns(scope, node):
                    yield from self._check_node(module, ctx, node, local_sets)

    @staticmethod
    def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _owns(scope: ast.AST, node: ast.AST) -> bool:
        """True if ``node``'s nearest enclosing scope is ``scope``."""
        for anc in ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc is scope
        return isinstance(scope, ast.Module)

    def _local_set_names(self, scope: ast.AST) -> set[str]:
        """Names assigned an unordered expression within ``scope``."""
        names: set[str] = set()
        # Two passes so order of definition vs. use does not matter for
        # this linear approximation.
        for _ in range(2):
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        if self._unordered(node.value, names, frozenset()):
                            names.add(target.id)
                        else:
                            names.discard(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    from repro.lint.engine import _is_set_annotation

                    if _is_set_annotation(node.annotation):
                        names.add(node.target.id)
        return names

    def _unordered(
        self, expr: ast.expr, local_sets: set[str], set_attrs: frozenset[str]
    ) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._unordered(expr.left, local_sets, set_attrs) or (
                self._unordered(expr.right, local_sets, set_attrs)
            )
        if isinstance(expr, ast.Name):
            return expr.id in local_sets or expr.id in set_attrs
        if isinstance(expr, ast.Attribute):
            return expr.attr in set_attrs
        return False

    def _check_node(
        self,
        module: ModuleSource,
        ctx: LintContext,
        node: ast.AST,
        local_sets: set[str],
    ) -> Iterator[Finding]:
        sites: list[tuple[ast.expr, ast.AST]] = []
        if isinstance(node, ast.For):
            sites.append((node.iter, node))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # Only the outermost generator's iterable: inner ones are
            # driven per-element and equally order-sensitive, but one
            # report per comprehension is enough.
            sites.append((node.generators[0].iter, node))
        for iterable, site in sites:
            if not self._unordered(iterable, local_sets, ctx.set_attrs):
                continue
            if self._order_insensitive(site):
                continue
            yield _finding(
                self, module, iterable,
                "iteration over an unordered set: wrap in sorted() (or "
                "feed an order-insensitive reduction) so event order "
                "cannot depend on PYTHONHASHSEED",
            )

    @staticmethod
    def _order_insensitive(site: ast.AST) -> bool:
        """True when the iteration result cannot leak its order."""
        if isinstance(site, ast.For):
            return False
        parent = parent_of(site)
        if isinstance(parent, (ast.SetComp, ast.Set)):
            return True
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            return parent.func.id in ORDER_INSENSITIVE_CONSUMERS
        return False


# ---------------------------------------------------------------------------
# SL003 — id()-based hashing/ordering
# ---------------------------------------------------------------------------


class IdOrderingRule(Rule):
    """SL003: id() feeding hashing, ordering, or persisted output."""

    id = "SL003"
    title = "id()-based hashing/ordering"
    rationale = (
        "id() is an allocation address: it differs across runs and "
        "interpreters, so any hash, sort key, dict key, or emitted "
        "value derived from it is nondeterministic."
    )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag every call to the id() builtin."""
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                yield _finding(
                    self, module, node,
                    "id() varies per run; key on a stable field "
                    "(node_id, base address, sequence number) instead",
                )


# ---------------------------------------------------------------------------
# SL004 — float equality
# ---------------------------------------------------------------------------


class FloatEqualityRule(Rule):
    """SL004: exact float comparison in protocol/predictor logic."""

    id = "SL004"
    title = "float == / != comparison"
    rationale = (
        "Protocol and predictor decisions (confidence thresholds, "
        "speedup ratios) must not branch on exact float equality: "
        "accumulation order changes the low bits, so the branch flips "
        "between otherwise-identical runs.  Compare with a tolerance "
        "or restructure around integers."
    )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag ==/!= where an operand is statically float-valued."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            chain = [node.left, *node.comparators]
            for idx, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._floaty(chain[idx]) or self._floaty(chain[idx + 1]):
                    yield _finding(
                        self, module, node,
                        "exact float equality: use a tolerance "
                        "(math.isclose) or integer arithmetic",
                    )
                    break

    @staticmethod
    def _floaty(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant) and type(expr.value) is float:
            return True
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id == "float"
        return False


# ---------------------------------------------------------------------------
# SL005 — scheduler event-handler discipline
# ---------------------------------------------------------------------------


class HandlerDisciplineRule(Rule):
    """SL005: scheduler callbacks that run (or capture) too early."""

    id = "SL005"
    title = "scheduler callback discipline"
    rationale = (
        "Handlers registered with scheduler.at()/after() must defer all "
        "state mutation to their fire time.  Passing cb() instead of cb "
        "mutates controller state at registration time; a lambda "
        "capturing a loop variable late-binds it, so every callback "
        "fires against the last iteration's state."
    )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag immediate-call and loop-captured scheduler callbacks."""
        attach_parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("at", "after")
                and self._scheduler_like(func.value)
            ):
                continue
            if len(node.args) < 2:
                continue
            callback = node.args[1]
            if isinstance(callback, ast.Call) and not self._is_partial(callback):
                yield _finding(
                    self, module, callback,
                    "callback argument is called at registration time: "
                    "pass the callable (or functools.partial) so the "
                    "mutation happens at the event's grant, not now",
                )
            elif isinstance(callback, ast.Lambda):
                yield from self._late_bindings(module, callback)

    @staticmethod
    def _scheduler_like(expr: ast.expr) -> bool:
        dotted = dotted_name(expr)
        if dotted is None:
            return False
        leaf = dotted.rsplit(".", 1)[-1]
        return "sched" in leaf

    @staticmethod
    def _is_partial(call: ast.Call) -> bool:
        dotted = dotted_name(call.func)
        return dotted is not None and dotted.rsplit(".", 1)[-1] == "partial"

    def _late_bindings(
        self, module: ModuleSource, lam: ast.Lambda
    ) -> Iterator[Finding]:
        bound = {a.arg for a in lam.args.args + lam.args.kwonlyargs}
        loop_vars: set[str] = set()
        for anc in ancestors(lam):
            if isinstance(anc, ast.For):
                loop_vars.update(
                    n.id for n in ast.walk(anc.target) if isinstance(n, ast.Name)
                )
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        captured = sorted(
            {
                n.id
                for n in ast.walk(lam.body)
                if isinstance(n, ast.Name) and n.id in loop_vars - bound
            }
        )
        if captured:
            yield _finding(
                self, module, lam,
                f"lambda callback late-binds loop variable(s) "
                f"{', '.join(captured)}: bind with a default "
                f"(lambda {captured[0]}={captured[0]}: ...) or "
                f"functools.partial",
            )


# ---------------------------------------------------------------------------
# SL006 — NULL_TRACER hot-path discipline
# ---------------------------------------------------------------------------

#: Calls that are expensive enough to matter per-event on a hot path.
EXPENSIVE_CALLS = frozenset({"sorted", "list", "sum", "repr"})

#: Modules allowed to default ``tracer=None`` (the user-facing boundary
#: that converts None into NULL_TRACER).
TRACER_BOUNDARY = ("system/", "obs/", "cli.py")


class TracerGuardRule(Rule):
    """SL006: hot-path tracing must stay free under NULL_TRACER."""

    id = "SL006"
    title = "NULL_TRACER hot-path discipline"
    rationale = (
        "Components hold tracer=NULL_TRACER so the disabled path costs "
        "one no-op call.  A tracer=None default forces per-call None "
        "checks (or crashes); building comprehensions/sorted() eagerly "
        "inside emit() arguments pays the formatting cost even when "
        "tracing is off — guard those sites with "
        "'if tracer is not NULL_TRACER'."
    )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag tracer=None defaults and unguarded expensive emit args."""
        attach_parents(module.tree)
        boundary = any(
            module.rel == b or (b.endswith("/") and module.rel.startswith(b))
            for b in TRACER_BOUNDARY
        )
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not boundary:
                    yield from self._none_defaults(module, node)
            elif isinstance(node, ast.Call):
                yield from self._eager_emit(module, node)

    def _none_defaults(
        self, module: ModuleSource, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        # Align trailing defaults with their parameters.
        pos_args = fn.args.args[len(fn.args.args) - len(fn.args.defaults):]
        pairs = [
            *zip(pos_args, fn.args.defaults),
            *(
                (a, d)
                for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None
            ),
        ]
        for arg, default in pairs:
            if (
                arg.arg == "tracer"
                and isinstance(default, ast.Constant)
                and default.value is None
            ):
                yield _finding(
                    self, module, arg,
                    "component takes tracer=None: default to NULL_TRACER "
                    "so the hot path never branches on None",
                )

    def _eager_emit(self, module: ModuleSource, call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            return
        owner = dotted_name(func.value)
        if owner is None or owner.rsplit(".", 1)[-1] != "tracer":
            return
        if self._guarded(call):
            return
        for value in [*call.args, *(kw.value for kw in call.keywords)]:
            if self._expensive(value):
                yield _finding(
                    self, module, value,
                    "expensive expression built eagerly in a tracer.emit() "
                    "argument: guard the emit with "
                    "'if ... is not NULL_TRACER' so the disabled path "
                    "stays free",
                )

    @staticmethod
    def _expensive(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in EXPENSIVE_CALLS
        return False

    @staticmethod
    def _guarded(call: ast.Call) -> bool:
        for anc in ancestors(call):
            if isinstance(anc, ast.If):
                names = {
                    n.id for n in ast.walk(anc.test) if isinstance(n, ast.Name)
                }
                if "NULL_TRACER" in names:
                    return True
        return False


# ---------------------------------------------------------------------------
# SL008 — span discipline
# ---------------------------------------------------------------------------

#: Directories where span instrumentation must keep begin/end paired.
#: ``service/`` entered the scope with the distributed job traces: the
#: queue/shard mint ``job``/``cell.lease``/``cell.run`` spans into the
#: :class:`~repro.obs.jobtrace.JobTraceStore` under the same
#: begin/end API, so the same discipline applies.
SPAN_SCOPE = ("coherence/", "lvp/", "sle/", "service/")


class SpanDisciplineRule(Rule):
    """SL008: span_begin without a kept id or a reachable span_end."""

    id = "SL008"
    title = "span begin/end discipline broken"
    rationale = (
        "Every tracer span must be closable: span_begin returns the id "
        "that span_end needs, so discarding it orphans the span (it "
        "shows open forever in the provenance report and Chrome "
        "export).  A module that only ever opens spans has the same "
        "problem unless its spans are closed elsewhere by design — use "
        "the tracer.span(...) context-manager helper, keep the id on "
        "the object that ends it, or baseline with a justification."
    )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag discarded span ids and begin-only modules in scope."""
        if not module.rel.startswith(SPAN_SCOPE):
            return
        attach_parents(module.tree)
        begins: list[ast.Call] = []
        has_end = False
        has_ctx_helper = False
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = self._span_call(node)
                if name == "span_begin":
                    begins.append(node)
                elif name == "span_end":
                    has_end = True
                elif name == "span" and isinstance(
                    parent_of(node), ast.withitem
                ):
                    has_ctx_helper = True
        for call in begins:
            if isinstance(parent_of(call), ast.Expr):
                yield _finding(
                    self, module, call,
                    "span_begin's span id is discarded; nothing can "
                    "span_end this span — keep the id (or use the "
                    "tracer.span(...) context manager)",
                )
        if begins and not has_end and not has_ctx_helper:
            yield _finding(
                self, module, begins[0],
                "module opens spans (span_begin) but never closes one "
                "(no span_end, no `with ...span(...)`); spans must be "
                "closable in the layer that owns their lifetime",
            )

    @staticmethod
    def _span_call(call: ast.Call) -> str | None:
        """The span-API method name when ``call`` is ``<x>.span*(...)``."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "span_begin", "span_end", "span",
        ):
            return func.attr
        return None


# ---------------------------------------------------------------------------
# SL009 — service events come from the registry
# ---------------------------------------------------------------------------

#: Directory whose modules may only emit declared service events.
SERVICE_SCOPE = ("service/",)

#: The module that *defines* the registry (and the EventLog.emit
#: validator itself) — exempt, or the rule would flag its own docs.
SERVICE_EVENTS_MODULE = "service/events.py"


class ServiceEventRegistryRule(Rule):
    """SL009: service code emits an event the registry doesn't declare."""

    id = "SL009"
    title = "service event not declared in the event registry"
    rationale = (
        "The service's observability contract is its named-event "
        "registry (repro.service.events.EVENT_SPECS): clients follow "
        "job streams and CI smoke checks grep for these names, so an "
        "emit of an undeclared or dynamically-built name only fails "
        "at runtime — declare the event (name + required fields) in "
        "EVENT_SPECS and emit the literal name."
    )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Flag ``<x>.emit(...)`` with undeclared or non-literal names."""
        if not module.rel.startswith(SERVICE_SCOPE):
            return
        if module.rel == SERVICE_EVENTS_MODULE:
            return
        from repro.service.events import EVENT_NAMES

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
                continue
            if not node.args:
                yield _finding(
                    self, module, node,
                    "emit() without a positional event name; pass the "
                    "declared event name as a string literal",
                )
                continue
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                yield _finding(
                    self, module, node,
                    "emit() with a dynamically-built event name; the "
                    "registry can only vouch for literal names — emit "
                    "a string literal declared in EVENT_SPECS",
                )
                continue
            if arg.value not in EVENT_NAMES:
                yield _finding(
                    self, module, node,
                    f"emit({arg.value!r}): not declared in "
                    f"repro.service.events.EVENT_SPECS; declare the "
                    f"event (name + required fields) before emitting it",
                )


#: AST rule classes in id order (the engine instantiates these).
AST_RULES = (
    NondeterminismRule,
    UnorderedIterationRule,
    IdOrderingRule,
    FloatEqualityRule,
    HandlerDisciplineRule,
    TracerGuardRule,
    SpanDisciplineRule,
    ServiceEventRegistryRule,
)
