"""simlint: static determinism/protocol analysis for the simulator.

Two layers:

* an AST pass over the ``repro`` sources with pluggable rules
  (SL001–SL006) that reject simulation-visible nondeterminism hazards
  — bare ``random`` / wall-clock calls, unordered ``set`` iteration
  feeding scheduling/arbitration/stats, ``id()``-based ordering, float
  equality in protocol logic, scheduler-callback misuse, and untraced
  hot-path hazards (docs/linting.md has the full catalog);
* a static protocol-table auditor (SL101–SL104) that imports the real
  :class:`~repro.coherence.protocol.ProtocolLogic` tables and, without
  running a simulation, accounts for every (state, event) row of
  MESI / MOESI / MESTI / E-MESTI and diffs MESTI against E-MESTI.

Stable public API: :func:`run_lint`, :class:`Rule`, :class:`Finding`
(plus :class:`LintResult` and the :data:`ALL_RULES` registry).  The
``repro-sim lint`` subcommand is the CLI front end.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import ALL_RULES, Finding, LintResult, Rule, run_lint

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintResult",
    "Rule",
    "run_lint",
]
