"""Enhanced MESTI (paper Figure 3, §2.3).

Adds to MOESTI:

* the **Validate_Shared (VS)** stable state, entered from T on a
  validate.  VS is semantically S for local requests (a local access
  demotes it to plain S), and
* the **useful snoop response**: on an external ReadX/Upgrade a VS line
  invalidates *without asserting the shared line*.

Because a cache that consumed validated data has moved VS→S, the shared
line observed at the writer's next intermediate-value-store upgrade
tells it, for free and distributed across the system, whether the
previous validate prevented any remote miss.  The useful-validate
predictor (:mod:`repro.coherence.predictor`) trains on exactly this
signal.
"""

from __future__ import annotations

from repro.coherence.messages import SnoopResult, TxnKind
from repro.coherence.protocol import ProtocolLogic
from repro.coherence.states import LineState
from repro.memory.cache import CacheLine


class EnhancedMestiProtocol(ProtocolLogic):
    """MOESTI + Validate_Shared + useful snoop response."""

    @property
    def enhanced(self) -> bool:
        """True: this protocol includes VS + the useful snoop response."""
        return True

    def revalidated_state(self) -> LineState:
        """Validates re-install remote T lines in VS, not S."""
        return LineState.VS

    def _asserts_shared(self, state: LineState, kind: TxnKind) -> bool:
        """VS withholds the shared line on invalidating transactions.

        This is the useful snoop response: lack of the shared signal at
        an intermediate-value-store upgrade means no remote processor
        touched the line since it was validated, so future validates
        are likely useless.
        """
        if state is LineState.VS and kind.invalidating:
            return False
        return state.valid

    def _apply_invalidate(
        self, line: CacheLine, state: LineState, kind: TxnKind, result: SnoopResult
    ) -> None:
        if state is LineState.VS:
            # Behave as MESTI specifies for a valid copy (enter T,
            # saving the value) — only the shared response differs.
            line.state = LineState.T
            line.dirty_mask = 0
            return
        super()._apply_invalidate(line, state, kind, result)

    def on_local_access(self, line: CacheLine) -> None:
        """Any local request demotes Validate_Shared to plain S."""
        if line.state is LineState.VS:
            line.state = LineState.S
