"""Model-checker-derived allowed-outcome oracles for generated tests.

Hand-written allowed sets do not scale to generated workloads, and a
wrong one would silently bless a broken protocol.  Instead the oracle
*is* the model: :func:`~repro.verify.litmus.enumerate_outcomes`
explores every interleaving of a test's programs on the
:class:`~repro.verify.model.AbstractMachine` (the same explorer
:class:`~repro.verify.litmus.LitmusRunner` uses), recording
transition-table coverage (the campaign's feedback signal), catching a
:class:`~repro.verify.model.ModelViolation` with its reproducing trace
(on the real tables that is a finding, on a mutated table the catch)
and keeping the shortest witness per outcome.  The campaign bounds it
by visited-state count so a pathological test cannot hang an
iteration.

The allowed set for a test is the outcome set enumerated on the
reference protocol (plain MESI): every protocol variant under test
must produce exactly that set — temporal-silence machinery is a
performance feature and must be architecturally invisible.
"""

from __future__ import annotations

from repro.common.config import InterconnectKind
from repro.verify.litmus import LitmusTest, OracleResult, enumerate_outcomes
from repro.verify.model import ProtocolSpec

#: Default visited-state bound per enumeration (a generated test has
#: at most ~9 ops over <=3 nodes; real explorations stay well under).
DEFAULT_MAX_STATES = 20_000

#: The protocol whose enumeration defines the allowed-outcome set.
REFERENCE_PROTOCOL = "mesi"


def derive_allowed(
    test: LitmusTest,
    interconnect: InterconnectKind = InterconnectKind.BUS,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[frozenset, OracleResult]:
    """The model-derived allowed set: reference-protocol enumeration."""
    reference = enumerate_outcomes(
        ProtocolSpec(REFERENCE_PROTOCOL), test, interconnect, max_states
    )
    return frozenset(reference.outcomes), reference
