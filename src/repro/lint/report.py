"""Rendering for simlint results (text for humans, JSON for CI).

The JSON document is the :meth:`~repro.lint.engine.LintResult.to_json`
form — CI archives it, and ``tests/lint`` pins its schema.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintResult


def render_text(result: LintResult, stats: bool = False) -> str:
    """Human-readable findings listing with a one-line verdict."""
    lines: list[str] = []
    for finding in result.findings:
        site = f"{finding.path}:{finding.line}" if finding.line else finding.path
        lines.append(f"{site}: {finding.rule}: {finding.message}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    verdict = "clean" if result.clean else f"{len(result.findings)} finding(s)"
    lines.append(
        f"simlint: {verdict} "
        f"({result.files_scanned} files, {len(result.rules)} rules)"
    )
    if stats and result.stats:
        per_rule = result.stats.get("findings_per_rule") or {}
        counts = " ".join(
            f"{rule}={count}" for rule, count in sorted(per_rule.items())
        ) or "none"
        lines.append(f"stats: findings by rule: {counts}")
        graph = result.stats.get("callgraph")
        if graph:
            lines.append(
                f"stats: call graph: {graph['functions']} functions, "
                f"{graph['classes']} classes, {graph['edges']} edges"
            )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-readable document ``--format json`` prints."""
    return json.dumps(result.to_json(), indent=1)
