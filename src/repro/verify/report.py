"""Rendering for verification results (``repro-sim check``).

Text output is for humans at a terminal: one compact block per
protocol/interconnect combination, table-audit findings one per row,
counterexample traces spelled out event by event, coverage reduced to
its three numbers unless a row is actually missing.  JSON output is
the same data unabridged, for CI jobs that want to archive or diff
it.
"""

from __future__ import annotations

from repro.verify.checker import CheckResult, format_event
from repro.verify.litmus import LitmusResult
from repro.verify.replay import ReplayOutcome


def render_check(result: CheckResult) -> str:
    """One text block for a model-check run."""
    cov = result.coverage
    head = (
        f"[{result.protocol}/{result.interconnect}] "
        f"{result.states} states, {result.transitions} transitions, "
        f"depth {result.depth}"
        f"{'' if result.complete else ' (bounded — NOT exhaustive)'}"
    )
    lines = [head]
    for finding in cov["audit"]:
        lines.append(f"  AUDIT {finding['kind']} row "
                     f"{'.'.join(finding['row'])}: {finding['detail']}")
    if "rows_total" not in cov:
        lines.append("  not explored: a table probe crashed")
        return "\n".join(lines)
    lines.append(
        f"  coverage: {cov['rows_exercised']}/{cov['rows_reachable']} "
        f"reachable rows exercised "
        f"({cov['rows_total'] - cov['rows_reachable']} invariant-unreachable)"
    )
    # Missing rows only mean something after a full clean run —
    # exploration stops at the first violation, and a bounded run
    # never saw the whole space.
    if result.ok and result.complete:
        for row in cov["missing"]:
            lines.append(f"  MISSING row: {'.'.join(row['row'])}")
    for row in cov["unexpected"]:
        lines.append(f"  UNEXPECTED row: {'.'.join(row['row'])}")
    if result.ok:
        lines.append("  ok: no violations")
    for v in result.violations:
        lines.append(f"  VIOLATION {v.kind}: {v.detail}")
        lines.append(f"  counterexample ({len(v.trace)} events):")
        for i, ev in enumerate(v.trace, 1):
            lines.append(f"    {i:2d}. {format_event(ev)}")
    return "\n".join(lines)


def render_litmus(results: list[LitmusResult]) -> str:
    """One line per litmus test, with outcome-set deltas when wrong."""
    lines = []
    for r in results:
        mark = "ok" if r.ok else "FAIL"
        lines.append(
            f"  litmus {r.test.name:<22s} {mark:4s} "
            f"{len(r.outcomes)} outcomes"
        )
        if r.forbidden:
            lines.append(f"    forbidden outcomes seen: {sorted(r.forbidden)}")
        if r.unreached:
            lines.append(f"    allowed outcomes missed: {sorted(r.unreached)}")
    return "\n".join(lines)


def render_replay(outcome: ReplayOutcome, trace_len: int) -> str:
    """Summarize a concrete replay of a counterexample trace."""
    if outcome.ok:
        return (
            f"  concrete replay: clean ({outcome.checks} checks) — the "
            f"abstract violation did not reproduce on the real system"
        )
    where = (
        f"at event {outcome.failed_at + 1}/{trace_len}"
        if outcome.failed_at is not None
        else "in the end-of-run sweep"
    )
    return (
        f"  concrete replay: FAILED {where} "
        f"({outcome.checks} checks)\n    {outcome.error}"
    )
