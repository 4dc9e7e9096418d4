"""simlint rule engine: file discovery, AST pass, finding plumbing.

The engine parses every target file once, runs a *context pass* that
collects cross-file facts rules need (which attribute names are
``set``-typed anywhere in the tree), then hands each module to every
enabled :class:`Rule`, and the whole parsed tree to its whole-program
pass.  Findings are plain data; suppression is the
:mod:`~repro.lint.baseline` layer's job so the engine stays pure.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site.

    ``path`` is posix-style and repo-relative when the engine can make
    it so.  ``snippet`` is the stripped source line — it, not the line
    number, feeds the baseline fingerprint so suppressions survive
    unrelated edits above the site.
    """

    rule: str
    path: str
    line: int
    message: str
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching (line-number free)."""
        basis = f"{self.rule}|{self.path}|{self.snippet or self.message}"
        return hashlib.sha256(basis.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        """Flatten to the JSON wire form (includes the fingerprint)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleSource:
    """One parsed target file."""

    path: Path
    rel: str  # posix, package-relative (e.g. "coherence/bus.py")
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def snippet(self, lineno: int) -> str:
        """The stripped source line at 1-based ``lineno``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


@dataclass
class LintContext:
    """Cross-file facts collected before rules run."""

    # Attribute/variable names annotated or initialized as sets
    # anywhere in the scanned tree (SL002 uses these to recognize
    # `entry.sharers`-style iterables without type inference).
    set_attrs: frozenset[str] = frozenset()
    # Every parsed module, for whole-program (check_project) rules.
    modules: tuple[ModuleSource, ...] = ()
    _project: object = field(default=None, repr=False)

    def project(self):
        """The (lazily built, cached) whole-program call graph."""
        if self._project is None:
            from repro.lint.callgraph import build_project

            self._project = build_project(self.modules)
        return self._project


class Rule:
    """Base class for simlint rules.

    AST rules override :meth:`check_module`; whole-program rules
    override :meth:`check_project`.  ``id`` / ``title`` /
    ``rationale`` feed ``--list-rules`` and the docs.
    """

    id = "SL000"
    title = "abstract rule"
    rationale = ""
    # Package-relative posix paths (or directory prefixes ending in /)
    # exempt from this rule.
    exempt: tuple[str, ...] = ()

    def is_exempt(self, rel: str) -> bool:
        """True if the module at ``rel`` is exempt from this rule."""
        return any(
            rel == e or (e.endswith("/") and rel.startswith(e))
            for e in self.exempt
        )

    def check_module(self, module: ModuleSource, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for one parsed module (AST rules)."""
        return iter(())

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield whole-program findings (call-graph / dataflow rules).

        Runs once per invocation with every parsed module available in
        ``ctx.modules`` and the call graph via ``ctx.project()``.
        Implementations must honour :meth:`is_exempt` per finding
        module themselves.
        """
        return iter(())


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` invocation."""

    findings: list[Finding]          # new findings (not baselined)
    suppressed: list[Finding]        # matched a baseline entry
    unused_baseline: list[str]       # fingerprints that matched nothing
    files_scanned: int
    rules: list[str]
    stats: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no new findings remain after suppression."""
        return not self.findings

    def to_json(self) -> dict:
        """The JSON document ``repro-sim lint --format json`` emits."""
        return {
            "version": 1,
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "rules": self.rules,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [f.to_json() for f in self.suppressed],
            "unused_baseline": sorted(self.unused_baseline),
            "stats": self.stats,
        }


def _iter_py_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _relative(path: Path, roots: Sequence[Path]) -> str:
    for root in roots:
        base = root if root.is_dir() else root.parent
        try:
            rel = path.resolve().relative_to(base.resolve()).as_posix()
        except ValueError:
            continue
        if rel != ".":
            return rel
    return path.as_posix()


def _is_set_annotation(node: ast.expr | None) -> bool:
    """True for ``set``, ``set[...]``, ``Set[...]``, ``frozenset[...]``."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(node, ast.Attribute):  # typing.Set etc.
        return node.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


def _set_assign_target(node: ast.AST) -> ast.expr | None:
    """The target of a set-typed assignment, or None."""
    if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation):
        return node.target
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        value = node.value
        # x = set() / x = field(default_factory=set)
        factory = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )
        if isinstance(value, ast.Call) and not factory:
            factory = any(
                kw.arg == "default_factory"
                and isinstance(kw.value, ast.Name)
                and kw.value.id in ("set", "frozenset")
                for kw in value.keywords
            )
        if factory:
            return node.targets[0]
    return None


def _collect_set_attrs(trees: Iterable[ast.Module]) -> frozenset[str]:
    """Set-typed *attribute* and module/class-level names, tree-wide.

    Function-local names are deliberately excluded: SL002 tracks those
    per scope, and registering them globally would make every
    same-named attribute elsewhere (e.g. ``ast.Import.names``) look
    like a set.
    """
    names: set[str] = set()

    def visit(node: ast.AST, in_function: bool) -> None:
        target = _set_assign_target(node)
        if target is not None:
            if isinstance(target, ast.Attribute):
                names.add(target.attr)
            elif isinstance(target, ast.Name) and not in_function:
                names.add(target.id)
        entering = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, entering)

    for tree in trees:
        visit(tree, False)
    return frozenset(names)


def default_target() -> Path:
    """The installed ``repro`` package directory (the default scan root)."""
    import repro

    return Path(repro.__file__).parent


def run_lint(
    paths: Sequence[Path | str] | None = None,
    rules: Sequence[str] | None = None,
    baseline=None,
) -> LintResult:
    """Run simlint and return a :class:`LintResult`.

    ``paths`` defaults to the installed ``repro`` package; ``rules``
    filters by rule id (unknown ids raise ``ValueError``); ``baseline``
    is a :class:`~repro.lint.baseline.Baseline` (or None).
    """
    roots = [Path(p) for p in paths] if paths else [default_target()]
    selected = _select_rules(rules)

    modules: list[ModuleSource] = []
    findings: list[Finding] = []
    for path in _iter_py_files(roots):
        text = path.read_text()
        rel = _relative(path, roots)
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            findings.append(Finding(
                rule="SL000", path=rel, line=exc.lineno or 0,
                message=f"syntax error: {exc.msg}",
            ))
            continue
        modules.append(ModuleSource(
            path=path, rel=rel, text=text, tree=tree,
            lines=text.splitlines(),
        ))

    ctx = LintContext(
        set_attrs=_collect_set_attrs(m.tree for m in modules),
        modules=tuple(modules),
    )
    for rule in selected:
        for module in modules:
            if rule.is_exempt(module.rel):
                continue
            findings.extend(rule.check_module(module, ctx))
        findings.extend(rule.check_project(ctx))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    new, suppressed, unused = findings, [], []
    if baseline is not None:
        new, suppressed, unused = baseline.partition(findings)

    stats: dict = {
        "files_scanned": len(modules),
        "rules_run": len(selected),
        "findings_per_rule": {},
    }
    per_rule: dict[str, int] = {}
    for finding in findings:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    stats["findings_per_rule"] = dict(sorted(per_rule.items()))
    if ctx._project is not None:
        project = ctx.project()
        stats["callgraph"] = {
            "functions": len(project.functions),
            "classes": sum(len(v) for v in project.classes.values()),
            "edges": project.edge_count,
        }
    return LintResult(
        findings=new,
        suppressed=suppressed,
        unused_baseline=unused,
        files_scanned=len(modules),
        rules=[r.id for r in selected],
        stats=stats,
    )


def _select_rules(rules: Sequence[str] | None) -> "list[Rule]":
    """Fresh instances of the selected rules, in registry order."""
    from repro.lint import ALL_RULES

    unknown = sorted(set(rules or ()) - set(ALL_RULES))
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(ALL_RULES))})"
        )
    return [cls() for rule_id, cls in ALL_RULES.items()
            if not rules or rule_id in rules]
