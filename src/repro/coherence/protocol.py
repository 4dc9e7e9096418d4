"""Protocol logic: the five variants, their table, and dispatch.

A :class:`ProtocolLogic` encodes the *state transition rules* of one
protocol; the :class:`~repro.coherence.controller.CoherenceController`
drives the generic request/snoop flow and delegates every state
decision here.  Snooping is two-phase to match the atomic-bus model:

1. ``snoop_query`` — read-only: would this cache assert the shared
   line, and can it supply the data?
2. ``snoop_apply`` — performs the state transition, knowing the
   aggregate :class:`~repro.coherence.messages.SnoopResult` (e.g. a
   T-state line only survives a Read if no dirty owner flushed a new
   value).

The paper defines its protocols as deltas, and :data:`PROTOCOLS` names
each variant once by the :class:`~repro.common.config.ProtocolConfig`
fields that select it.  One class runs the four plain variants: its
``kind`` comes from the config, and the rules below branch on the
capabilities it implies.

* **MESI** — the conventional 4-state invalidate protocol.
* **MOESI** — MESI plus O, the dirty shared owner: a modified line
  servicing a remote read stays on-chip instead of writing back to
  memory.  It is the paper's baseline, the Gigaplane-XB protocol of
  the simulated machine (Table 1).
* **MESTI** / **MOESTI** — MESI / MOESI plus **T**, *temporally
  invalid* (Figure 2).  A valid line receiving an invalidation saves
  its copy, by construction the last globally visible value, instead
  of discarding it.  When the writer later detects that the line has
  reverted to that value it broadcasts a **validate**, and T copies
  return to shared, turning what would have been communication misses
  into hits.  Only a single previous value is saved: any event that
  makes a *newer* value globally visible (a dirty flush or a
  writeback) drops T copies to I, because a future validate can no
  longer refer to their saved version.  The validating owner retires
  to O where the protocol has one (MOESTI, as simulated in the paper),
  keeping the reverted dirty line on-chip as the ordering point for
  later reads; without O the validate implies a memory writeback.
* **E-MESTI** — MOESTI plus Validate_Shared and the useful snoop
  response (Figure 3), in :mod:`repro.coherence.emesti`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.config import ProtocolConfig, ProtocolKind, ValidatePolicy
from repro.common.errors import ProtocolError
from repro.coherence.messages import SnoopResult, TxnKind
from repro.coherence.states import LineState
from repro.memory.cache import CacheLine

#: Every protocol variant, by name, as the ProtocolConfig fields that
#: select it.  The plain variants validate unconditionally; E-MESTI is
#: built on MOESTI and trains the useful-validate predictor.
PROTOCOLS: dict[str, dict] = {
    "mesi": {"kind": ProtocolKind.MESI, "enhanced": False,
             "validate_policy": ValidatePolicy.ALWAYS},
    "moesi": {"kind": ProtocolKind.MOESI, "enhanced": False,
              "validate_policy": ValidatePolicy.ALWAYS},
    "mesti": {"kind": ProtocolKind.MESTI, "enhanced": False,
              "validate_policy": ValidatePolicy.ALWAYS},
    "moesti": {"kind": ProtocolKind.MOESTI, "enhanced": False,
               "validate_policy": ValidatePolicy.ALWAYS},
    "emesti": {"kind": ProtocolKind.MOESTI, "enhanced": True,
               "validate_policy": ValidatePolicy.PREDICTOR},
}

#: The variants differential checks compare by default: one per step
#: of the paper's delta chain (base, +T, +VS and the useful response).
DEFAULT_PROTOCOLS = ("mesi", "mesti", "emesti")


@dataclass
class SnoopQuery:
    """Read-only snoop answer from one remote cache."""

    assert_shared: bool = False
    can_supply: bool = False


@dataclass(frozen=True)
class TransitionRecord:
    """One exercised row of a protocol's transition table.

    ``side`` is ``"remote"`` for snooped transitions and ``"local"``
    for requester-side ones (fills, upgrades, validates, evictions).
    ``pre`` is the state letter before the event (``"-"`` for an
    absent line), ``event`` a row label such as ``"ReadX+flush"`` or
    ``"fill.Read.S"``, and ``post`` the state letter afterwards.
    """

    side: str
    pre: str
    event: str
    post: str

    @property
    def key(self) -> tuple[str, str, str]:
        """The (side, pre, event) row identity, ignoring the outcome."""
        return (self.side, self.pre, self.event)


TransitionObserver = Callable[[TransitionRecord], None]


class ProtocolLogic:
    """The plain protocol variants, and the base of E-MESTI.

    ``kind`` comes from the config; the O and T rules branch on the
    capabilities it implies.  E-MESTI overrides the transition hooks
    where Figure 3 differs.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        # An attribute, not a property: has_owned/has_temporal read it
        # on every snoop.
        self.kind: ProtocolKind = config.kind
        # Transition observer (verification hook): when set, every
        # applied snoop transition — and any requester-side transition
        # the caller reports via :meth:`note_transition` — is recorded.
        # The model checker uses this for table-coverage reporting; it
        # is ``None`` (a single attribute test) in simulation runs.
        self.observer: Optional[TransitionObserver] = None

    # -- capabilities ---------------------------------------------------

    @property
    def has_owned(self) -> bool:
        """Protocol includes the O (dirty shared) state."""
        return self.kind.has_owned_state

    @property
    def has_temporal(self) -> bool:
        """Protocol includes the T (temporally invalid) state."""
        return self.kind.has_temporal_state

    @property
    def enhanced(self) -> bool:
        """Protocol includes Validate_Shared + the useful snoop response."""
        return False

    # -- introspection (verification support) ---------------------------

    def states(self) -> tuple[LineState, ...]:
        """The stable states this protocol variant can install."""
        out = [LineState.I, LineState.S, LineState.E, LineState.M]
        if self.has_owned:
            out.append(LineState.O)
        if self.has_temporal:
            out.append(LineState.T)
        if self.enhanced:
            out.append(LineState.VS)
        return tuple(out)

    @property
    def name(self) -> str:
        """Human-readable variant name (``E-MESTI`` for the enhanced one)."""
        return f"E-{self.kind.value}" if self.enhanced else self.kind.value

    def note_transition(self, side: str, pre: str, event: str, post: str) -> None:
        """Report one exercised transition-table row to the observer."""
        if self.observer is not None:
            self.observer(TransitionRecord(side, pre, event, post))

    def remote_event_labels(self) -> tuple[str, ...]:
        """Every remote-side row label this protocol's table can see.

        Reads/ReadXs split into plain and ``+flush`` variants (see
        :meth:`snoop_event_label`); the rest appear once.  The verify
        table probe (:func:`repro.verify.table.expected_rows`) crosses
        these with :meth:`states` to enumerate the full table.
        """
        labels: list[str] = []
        for kind in TxnKind:
            labels.append(kind.value)
            if kind in (TxnKind.READ, TxnKind.READX):
                labels.append(f"{kind.value}+flush")
        return tuple(labels)

    def probe_remote(self, pre: LineState, label: str) -> str:
        """Statically probe one remote table row, without a simulation.

        Runs the real ``snoop_query`` + ``snoop_apply`` code against a
        synthetic one-word line in state ``pre`` for the event
        ``label`` (a :meth:`remote_event_labels` entry).  Returns the
        post-state letter, or ``"illegal"`` when the implementation
        deliberately raises :class:`ProtocolError`.  Any *other*
        exception propagates — to the table audit that is a hole, not
        a legal outcome.  The observer is suppressed for the
        duration: probes are not coverage.
        """
        flush = label.endswith("+flush")
        kind = TxnKind(label.removesuffix("+flush"))
        line = CacheLine(1)
        line.base = 0
        line.state = pre
        line.data = [0]
        line.visible = [0]
        result = SnoopResult(dirty_owner=0 if flush else None)
        saved, self.observer = self.observer, None
        try:
            self.snoop_query(line, kind)
            self.snoop_apply(line, kind, result)
        except ProtocolError:
            return "illegal"
        finally:
            self.observer = saved
        return line.state.value

    @staticmethod
    def snoop_event_label(kind: TxnKind, result: SnoopResult) -> str:
        """Coverage row label for a snooped transaction.

        Reads and ReadXs behave differently at a T copy depending on
        whether a dirty owner flushed (a new value became globally
        visible), so the flush variant is a distinct table row.
        """
        flush = result.dirty_owner is not None and kind in (
            TxnKind.READ, TxnKind.READX
        )
        return f"{kind.value}+flush" if flush else kind.value

    # -- requester-side transitions -------------------------------------

    def fill_state(self, kind: TxnKind, result: SnoopResult) -> LineState:
        """State installed at the requester when its transaction completes."""
        if kind is TxnKind.READ:
            return LineState.S if result.shared else LineState.E
        if kind in (TxnKind.READX, TxnKind.UPGRADE):
            return LineState.M
        raise ProtocolError(f"no fill state for {kind}")

    def post_validate_state(self) -> LineState:
        """Owner state after broadcasting a validate.

        The owner forgoes exclusivity (§2.2).  With an O state the dirty
        reverted data stays on-chip as dirty-shared; without one the
        validate implies a writeback so memory matches the shared copy.
        """
        return LineState.O if self.has_owned else LineState.S

    @property
    def validate_writes_back(self) -> bool:
        """True if a validate must also update memory (no O state)."""
        return not self.has_owned

    def revalidated_state(self) -> LineState:
        """State a remote T line enters on receiving a validate."""
        return LineState.S

    # -- remote-side snooping --------------------------------------------

    def snoop_query(self, line: CacheLine, kind: TxnKind) -> SnoopQuery:
        """Phase 1: shared-line assertion and data-supply capability."""
        state = line.state
        if kind in (TxnKind.READ, TxnKind.READX):
            return SnoopQuery(
                assert_shared=self._asserts_shared(state, kind),
                can_supply=state.dirty,
            )
        if kind is TxnKind.UPGRADE:
            if state in (LineState.M, LineState.E):
                raise ProtocolError(
                    f"remote {state.value} line snooped an Upgrade: the "
                    f"requester cannot have held a shared copy"
                )
            return SnoopQuery(assert_shared=self._asserts_shared(state, kind))
        return SnoopQuery()

    def _asserts_shared(self, state: LineState, kind: TxnKind) -> bool:
        """Whether ``state`` asserts the shared line for ``kind``.

        Plain protocols assert it from any valid state.  Enhanced MESTI
        overrides this for Validate_Shared on invalidating transactions
        (the useful snoop response, Figure 3).
        """
        return state.valid

    def snoop_apply(
        self, line: CacheLine, kind: TxnKind, result: SnoopResult
    ) -> None:
        """Phase 2: apply this remote cache's state transition."""
        state = line.state
        if kind is TxnKind.READ:
            self._apply_read(line, state, result)
        elif kind in (TxnKind.READX, TxnKind.UPGRADE):
            self._apply_invalidate(line, state, kind, result)
        elif kind is TxnKind.VALIDATE:
            self._apply_validate(line, state)
        elif kind is TxnKind.WRITEBACK:
            self._apply_writeback(line, state)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown transaction kind {kind}")
        if self.observer is not None:
            self.note_transition(
                "remote",
                state.value,
                self.snoop_event_label(kind, result),
                line.state.value,
            )

    def _apply_read(
        self, line: CacheLine, state: LineState, result: SnoopResult
    ) -> None:
        if state is LineState.M:
            # Our data was flushed to the requester: it is now globally
            # visible.  Without an O state we also write back to memory
            # (the controller performs the memory update).
            line.visible = list(line.data)
            line.diverged = False
            line.state = LineState.O if self.has_owned else LineState.S
            if not self.has_owned:
                line.dirty_mask = 0
        elif state is LineState.E:
            line.state = LineState.S
        elif state is LineState.T:
            # A dirty flush makes a new value globally visible; the
            # saved version can no longer match a future validate.
            if result.dirty_owner is not None:
                line.state = LineState.I
        # S, O, VS, I: unchanged on a Read.

    def _apply_invalidate(
        self, line: CacheLine, state: LineState, kind: TxnKind, result: SnoopResult
    ) -> None:
        if state is LineState.T:
            # The saved value survives an Upgrade (the upgrader held the
            # same globally visible copy we saved) but not a ReadX whose
            # data came from a dirty owner (a newer value became
            # visible in the flush).
            if kind is TxnKind.READX and result.dirty_owner is not None:
                line.state = LineState.I
            return
        if not state.valid:
            return
        if self.has_temporal:
            # Figure 2: a valid copy enters T on an invalidate, saving
            # the last globally visible value it currently holds.
            line.state = LineState.T
            line.dirty_mask = 0
        else:
            line.state = LineState.I
            line.dirty_mask = 0

    def _apply_validate(self, line: CacheLine, state: LineState) -> None:
        if state is LineState.T:
            line.state = self.revalidated_state()
        elif state in (LineState.S, LineState.VS):
            # A read granted between the validate's issue and its grant
            # gave us the (already reverted) value; nothing to do.
            pass
        elif state.valid:
            raise ProtocolError(
                f"validate snooped by a line in {state.value}: the "
                f"validating owner must have held the only valid copy"
            )
        # I: stays I (no saved value to re-install).

    def _apply_writeback(self, line: CacheLine, state: LineState) -> None:
        if state is LineState.T:
            # Conservative: a writeback publishes the owner's (possibly
            # new) value to memory; drop the saved version.
            line.state = LineState.I


def make_protocol(config: ProtocolConfig) -> ProtocolLogic:
    """Instantiate the protocol logic selected by ``config``."""
    from repro.coherence.emesti import EnhancedMestiProtocol

    return (EnhancedMestiProtocol if config.enhanced else ProtocolLogic)(config)
