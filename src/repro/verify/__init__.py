"""Protocol verification subsystem.

:mod:`.table` audits each protocol table statically — every row
transitions or raises by design, the raising rows are the ones the
invariants forbid, and E-MESTI differs from the MOESTI it is built on
only in its Validate_Shared rows.  Then an explicit-state
(Murphi-style) model checker explores the *actual* protocol
implementation: the abstract machine in :mod:`.model` drives
the real :class:`~repro.coherence.protocol.ProtocolLogic` transition
tables (and the real directory bookkeeping) over a tiny system —
a handful of nodes, one or two lines, two data values — while
:mod:`.checker` exhaustively enumerates every reachable global state
with symmetry reduction and checks each line with
:func:`~repro.coherence.validation.line_violation`, the invariants the
runtime checker holds too.  :mod:`.litmus` runs named multi-node programs
against their allowed-outcome sets, :mod:`.replay` re-executes any
abstract trace on the concrete memory system under
:class:`~repro.coherence.validation.CoherenceChecker`, and
:mod:`.mutations` defines protocol mutants, among them the seeded bugs
that demonstrate the whole loop: abstract counterexample -> concrete
failure.

Surface: ``repro-sim check`` (see :mod:`repro.cli`).
"""

from repro.verify.checker import CheckResult, ModelChecker, Violation
from repro.verify.litmus import LITMUS_TESTS, LitmusRunner, LitmusTest
from repro.verify.model import AbstractMachine, ModelViolation, ProtocolSpec
from repro.verify.mutations import SEEDED, mutate
from repro.verify.replay import ConcreteReplayer, ReplayOutcome
from repro.verify.table import (
    TransitionCoverage,
    audit_table,
    coverage_report,
    expected_rows,
)

__all__ = [
    "AbstractMachine",
    "CheckResult",
    "ConcreteReplayer",
    "LITMUS_TESTS",
    "LitmusRunner",
    "LitmusTest",
    "ModelChecker",
    "ModelViolation",
    "ProtocolSpec",
    "ReplayOutcome",
    "SEEDED",
    "TransitionCoverage",
    "Violation",
    "audit_table",
    "coverage_report",
    "expected_rows",
    "mutate",
]
