"""simlint contract rules SL204–SL205 (dataflow + registry cross-check).

* **SL204** — nondeterminism taint: a value produced by ``time.*``,
  ``os.getpid``, ``random``, ``uuid``, or wall-clock ``datetime`` calls
  must not flow (through local assignments, tracked by
  :mod:`~repro.lint.flow`) into a cache fingerprint, a deterministic
  :class:`~repro.obs.progress.RunManifest` field, or an event payload
  field outside the declared
  :data:`~repro.experiments.runner.NONDETERMINISTIC_FIELDS`.  The
  temporal-silence results are seed-reproducible only if cached
  artefacts never embed per-run entropy.
* **SL205** — contract cross-check, generalizing SL009 from *names* to
  *fields*: every ``emit("<declared event>", ...)`` call must provide
  that event's required payload fields statically, must not supply a
  field the spec declares neither required nor optional (the EventLog
  rejects those at emit time), and every metric name read back via
  ``metrics.get(...)`` / ``metrics.total(...)`` must be a family some
  module actually declares or the run export table
  (:data:`~repro.obs.metrics.RUN_METRICS`) lists.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import FunctionInfo, Project, walk_executed
from repro.lint.engine import Finding, LintContext, ModuleSource, Rule
from repro.lint.flow import expr_tainted, taint
from repro.lint.rules import (
    NONDETERMINISTIC_ORIGINS,
    _finding,
    attach_parents,
    import_aliases,
    resolve_origin,
)

#: Call origins whose results differ run to run (SL204 taint sources):
#: SL001's sources plus the measurement calls SL001 allows, since a
#: measurement must not reach a deterministic artefact either.
TAINT_ORIGINS = frozenset(NONDETERMINISTIC_ORIGINS) | {
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "os.getpid", "os.times",
}

#: Origin prefixes that are wholly nondeterministic.
TAINT_PREFIXES = ("random.", "numpy.random")

#: Receiver leaf names treated as an EventLog for emit-payload checks.
EVENT_RECEIVERS = frozenset({"events", "_events", "event_log"})

#: Receiver leaf names treated as a MetricsRegistry.
METRIC_RECEIVERS = frozenset({"metrics", "_metrics", "registry", "_registry"})

#: MetricsRegistry family-declaring methods -> index of the name arg.
METRIC_DECLARERS = {"counter": 0, "gauge": 0, "histogram": 0}


def _literal_str(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _receiver_leaf(func: ast.expr) -> str | None:
    """The name the receiver chain ends in (``self.events`` -> events)."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _enclosing_stmt(node: ast.AST) -> ast.stmt | None:
    cur: ast.AST | None = node
    while cur is not None:
        if isinstance(cur, ast.stmt):
            return cur
        cur = getattr(cur, "_simlint_parent", None)
    return None


class NondeterminismTaintRule(Rule):
    """SL204: per-run entropy flows into a deterministic artefact."""

    id = "SL204"
    title = "nondeterministic value flows into a deterministic artefact"
    rationale = (
        "Cache fingerprints, RunManifest deterministic fields, and "
        "event payload fields outside NONDETERMINISTIC_FIELDS are part "
        "of the reproducibility contract: a timestamp or pid reaching "
        "them makes two identical runs disagree, poisoning the cache "
        "and the paper's seed-controlled comparisons."
    )

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """Run per-function taint and audit the three sink kinds."""
        from repro.experiments.runner import NONDETERMINISTIC_FIELDS

        project: Project = ctx.project()
        nondet = set(NONDETERMINISTIC_FIELDS)
        for module in ctx.modules:
            if self.is_exempt(module.rel):
                continue
            attach_parents(module.tree)
        for fn in project.functions:
            module = next(
                (m for m in ctx.modules if m.rel == fn.rel), None,
            )
            if module is None or self.is_exempt(fn.rel):
                continue
            yield from self._audit_function(project, fn, module, nondet)

    def _audit_function(
        self,
        project: Project,
        fn: FunctionInfo,
        module: ModuleSource,
        nondet: set[str],
    ) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)

        def is_source(expr: ast.expr) -> bool:
            if not isinstance(expr, ast.Call):
                return False
            func = expr.func
            if not isinstance(func, (ast.Name, ast.Attribute)):
                return False
            origin = resolve_origin(func, aliases)
            if origin is None and isinstance(func, ast.Name):
                origin = aliases.get(func.id)
            if origin is None:
                return False
            return origin in TAINT_ORIGINS or origin.startswith(
                TAINT_PREFIXES
            )

        # Cheap pre-screen: no sources in the function, no taint.
        if not any(is_source(n) for n in ast.walk(fn.node)
                   if isinstance(n, ast.expr)):
            return
        states = taint(fn.node, is_source)

        def tainted_at(call: ast.Call, expr: ast.expr | None) -> bool:
            stmt = _enclosing_stmt(call)
            entry = states.get(stmt, frozenset()) if stmt else frozenset()
            return expr_tainted(expr, entry, is_source)

        for node in walk_executed(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # Sink 1: cache fingerprints.
            if self._is_fingerprint_call(func, aliases):
                for arg in [*node.args, *[k.value for k in node.keywords]]:
                    if tainted_at(node, arg):
                        yield _finding(
                            self, module, arg,
                            "nondeterministic value flows into a cache "
                            "fingerprint; fingerprints must derive only "
                            "from the configuration",
                        )
            # Sink 2: event payloads.
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "emit"
                and self._is_event_receiver(project, fn, func)
            ):
                for kw in node.keywords:
                    if kw.arg is None or kw.arg in nondet:
                        continue
                    if tainted_at(node, kw.value):
                        yield _finding(
                            self, module, kw.value,
                            f"nondeterministic value flows into event "
                            f"payload field {kw.arg!r}; only "
                            f"{sorted(nondet)} may vary per run",
                        )
            # Sink 3: RunManifest deterministic fields.
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "record"
                and self._is_manifest_receiver(project, fn, func)
            ):
                for idx, arg in enumerate(node.args):
                    if tainted_at(node, arg):
                        field = ("key", "status")[idx] if idx < 2 else "?"
                        yield _finding(
                            self, module, arg,
                            f"nondeterministic value flows into "
                            f"RunManifest field {field!r}",
                        )
                for kw in node.keywords:
                    if kw.arg is None or kw.arg in nondet:
                        continue
                    if tainted_at(node, kw.value):
                        yield _finding(
                            self, module, kw.value,
                            f"nondeterministic value flows into "
                            f"deterministic RunManifest field {kw.arg!r}",
                        )

    @staticmethod
    def _is_fingerprint_call(func: ast.expr, aliases: dict) -> bool:
        if isinstance(func, ast.Name):
            if func.id == "cell_fingerprint":
                return True
            origin = aliases.get(func.id, "")
            return origin.endswith(".cell_fingerprint")
        if isinstance(func, ast.Attribute):
            return func.attr == "cell_fingerprint"
        return False

    @staticmethod
    def _is_event_receiver(
        project: Project, fn: FunctionInfo, func: ast.Attribute
    ) -> bool:
        leaf = _receiver_leaf(func)
        if leaf in EVENT_RECEIVERS:
            return True
        owner = project.expr_class(func.value, fn)
        return owner is not None and owner.name == "EventLog"

    @staticmethod
    def _is_manifest_receiver(
        project: Project, fn: FunctionInfo, func: ast.Attribute
    ) -> bool:
        leaf = _receiver_leaf(func)
        if leaf in ("manifest", "_manifest"):
            return True
        owner = project.expr_class(func.value, fn)
        return owner is not None and owner.name == "RunManifest"


class ContractCrossCheckRule(Rule):
    """SL205: emit payloads / metric reads vs their declared contracts."""

    id = "SL205"
    title = "payload or metric use contradicts its declared contract"
    rationale = (
        "EVENT_SPECS and the MetricsRegistry are the service's wire "
        "contract.  An emit that cannot statically supply an event's "
        "required fields, or a read of a metric family nothing "
        "declares, only fails at runtime — in production, on the "
        "unhappy path."
    )

    #: The registry module itself routes dynamically by design.
    exempt = ("service/events.py",)

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """Audit emit payload keys and metric-name reads."""
        from repro.service.events import EVENT_SPECS

        project: Project = ctx.project()
        for module in ctx.modules:
            attach_parents(module.tree)
        declared_metrics = self._declared_metric_families(ctx)
        for fn in project.functions:
            module = next(
                (m for m in ctx.modules if m.rel == fn.rel), None,
            )
            if module is None or self.is_exempt(fn.rel):
                continue
            yield from self._audit_emits(project, fn, module, EVENT_SPECS)
            yield from self._audit_metric_reads(
                project, fn, module, declared_metrics,
            )

    # -- emit payload fields --------------------------------------------

    def _audit_emits(
        self,
        project: Project,
        fn: FunctionInfo,
        module: ModuleSource,
        specs: dict,
    ) -> Iterator[Finding]:
        for node in walk_executed(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
            ):
                continue
            name = _literal_str(node.args[0])
            if name is None or name not in specs:
                continue  # undeclared names are SL009's finding
            required = tuple(specs[name].fields)
            allowed = set(required) | set(
                getattr(specs[name], "optional", ()) or ()
            )
            present, complete = self._payload_keys(node, fn)
            # A statically-supplied key outside fields+optional is an
            # error even when the payload also has dynamic parts: the
            # EventLog rejects undeclared fields at emit time.
            undeclared = sorted(present - allowed)
            if undeclared:
                yield _finding(
                    self, module, node,
                    f"emit({name!r}) supplies field(s) "
                    f"{', '.join(repr(u) for u in undeclared)} that the "
                    f"event's spec does not declare (neither required "
                    f"nor optional); EventLog.emit rejects them",
                )
            if not complete:
                continue  # **dynamic payload: cannot vouch, stay quiet
            missing = [f for f in required if f not in present]
            if missing:
                yield _finding(
                    self, module, node,
                    f"emit({name!r}) cannot satisfy the event's "
                    f"declared contract: required field(s) "
                    f"{', '.join(repr(m) for m in missing)} are not "
                    f"supplied statically",
                )

    @staticmethod
    def _payload_keys(
        call: ast.Call, fn: FunctionInfo
    ) -> tuple[set[str], bool]:
        """(statically known payload keys, whether the set is complete)."""
        keys: set[str] = set()
        for kw in call.keywords:
            if kw.arg is not None:
                keys.add(kw.arg)
                continue
            # **{...} literal, or **name where name is assigned exactly
            # one all-literal dict in this function.
            value = kw.value
            if isinstance(value, ast.Name):
                assigns = [
                    n.value for n in walk_executed(fn.node)
                    if isinstance(n, ast.Assign)
                    and len(n.targets) == 1
                    and isinstance(n.targets[0], ast.Name)
                    and n.targets[0].id == value.id
                ]
                if len(assigns) == 1 and isinstance(assigns[0], ast.Dict):
                    value = assigns[0]
            if isinstance(value, ast.Dict):
                literal_keys = [_literal_str(k) for k in value.keys]
                if all(k is not None for k in literal_keys):
                    keys.update(k for k in literal_keys if k is not None)
                    continue
            return keys, False
        return keys, True

    # -- metric families -------------------------------------------------

    def _declared_metric_families(self, ctx: LintContext) -> set[str]:
        from repro.obs.metrics import RUN_METRICS

        declared = {spec.name for spec in RUN_METRICS}
        for module in ctx.modules:
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                idx = METRIC_DECLARERS.get(node.func.attr)
                if idx is not None:
                    name = self._name_arg(node, idx, "name")
                    if name is not None:
                        declared.add(name)
        return declared

    @staticmethod
    def _name_arg(call: ast.Call, index: int, kwarg: str) -> str | None:
        if len(call.args) > index:
            return _literal_str(call.args[index])
        for kw in call.keywords:
            if kw.arg == kwarg:
                return _literal_str(kw.value)
        return None

    def _audit_metric_reads(
        self,
        project: Project,
        fn: FunctionInfo,
        module: ModuleSource,
        declared: set[str],
    ) -> Iterator[Finding]:
        for node in walk_executed(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "total")
                and node.args
            ):
                continue
            if not self._is_metrics_receiver(project, fn, node.func):
                continue
            name = _literal_str(node.args[0])
            if name is None or name in declared:
                continue
            yield _finding(
                self, module, node,
                f"metric family {name!r} is read but no scanned module "
                f"declares it via counter()/gauge()/histogram() and "
                f"RUN_METRICS does not list it; the read returns nothing "
                f"in production",
            )

    @staticmethod
    def _is_metrics_receiver(
        project: Project, fn: FunctionInfo, func: ast.Attribute
    ) -> bool:
        value = func.value
        if isinstance(value, ast.Name) and value.id in METRIC_RECEIVERS:
            return True
        if isinstance(value, ast.Attribute) and value.attr in METRIC_RECEIVERS:
            return True
        owner = project.expr_class(value, fn)
        return owner is not None and owner.name == "MetricsRegistry"


#: Contract rule classes in id order (the engine instantiates these).
CONTRACT_RULES = (
    NondeterminismTaintRule,
    ContractCrossCheckRule,
)
