"""simlint: static determinism and discipline analysis for the simulator.

Two layers:

* an AST pass over the ``repro`` sources with pluggable rules
  (SL001–SL006, SL008, SL009) that reject simulation-visible
  nondeterminism hazards — bare ``random`` / wall-clock calls,
  unordered ``set`` iteration feeding scheduling/arbitration/stats,
  ``id()``-based ordering, float equality in protocol logic,
  scheduler-callback misuse, untraced hot-path hazards, unclosable
  spans and undeclared service events (docs/linting.md has the full
  catalog);
* a whole-program pass (SL201–SL205) over a call graph of the same
  sources: concurrency discipline in the service layer, and dataflow
  and contract checks on fingerprints, event payloads and metrics.

The protocol tables are judged by ``repro-sim check``
(:func:`repro.verify.table.audit_table`), not here: a table audit is
not source analysis.

Stable public API: :func:`run_lint`, :class:`Rule`, :class:`Finding`
(plus :class:`LintResult` and the :data:`ALL_RULES` registry).  The
``repro-sim lint`` subcommand is the CLI front end.
"""

from repro.lint.baseline import Baseline
from repro.lint.concurrency import CONCURRENCY_RULES
from repro.lint.contracts import CONTRACT_RULES
from repro.lint.engine import Finding, LintResult, Rule, run_lint
from repro.lint.rules import AST_RULES

#: Every rule class by id, in id order.
ALL_RULES = {cls.id: cls for cls in AST_RULES + CONCURRENCY_RULES + CONTRACT_RULES}

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintResult",
    "Rule",
    "run_lint",
]
