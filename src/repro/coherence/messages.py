"""Bus transaction and snoop response types.

The address network carries five transaction kinds.  ``READ``,
``READX`` (read with intent to modify), and ``UPGRADE`` are
conventional; ``VALIDATE`` is MESTI's broadcast that communicates
"this line has reverted to the last globally visible value" so remote
T-state copies can return to shared; ``WRITEBACK`` retires dirty
evictions to memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional


class TxnKind(enum.Enum):
    """Address-network transaction type."""

    READ = "Read"
    READX = "ReadX"
    UPGRADE = "Upgrade"
    VALIDATE = "Validate"
    WRITEBACK = "Writeback"

    @property
    def invalidating(self) -> bool:
        """True for transactions that invalidate remote copies."""
        return self in (TxnKind.READX, TxnKind.UPGRADE)

    @property
    def carries_data_response(self) -> bool:
        """True if a data transfer to the requester follows."""
        return self in (TxnKind.READ, TxnKind.READX)


@dataclass
class SnoopResult:
    """Aggregated snoop responses for one transaction.

    ``shared`` is the conventional shared line (asserted by remote
    caches holding a valid copy).  On a ReadX/Upgrade under Enhanced
    MESTI this doubles as the *useful snoop response*: caches in
    Validate_Shared deliberately withhold it, so its presence means a
    previous validate was consumed (§2.3).  ``dirty_owner`` is the node
    index of a remote M/O cache that will source the data (else data
    comes from memory).
    """

    shared: bool = False
    dirty_owner: int | None = None
    owner_data: list[int] | None = None


@dataclass
class BusTransaction:
    """One address-network transaction."""

    kind: TxnKind
    base: int
    requester: int
    data: list[int] | None = None  # writeback payload
    grant_time: int | None = None
    result: SnoopResult = field(default_factory=SnoopResult)
    # Fired synchronously at the atomic grant point, after the
    # requester's state is installed.  Store-like operations apply
    # their architectural write here — atomically with ownership — so
    # store-conditionals resolve exactly as LL/SC does at the
    # coherence point (first grant wins; no completion-window races).
    grant_callback: Optional[Callable[[], None]] = None
    # Trace span id minted by the issuing controller (None untraced);
    # the interconnect closes the span at grant or cancel.
    span: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"BusTransaction({self.kind.value} base={self.base:#x} "
            f"req=P{self.requester})"
        )
