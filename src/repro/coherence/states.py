"""Cache line coherence states.

The union of all states used by the protocol family:

* ``M``, ``E``, ``S``, ``I`` — conventional MESI.
* ``O`` — dirty shared owner (MOESI baseline, Gigaplane-XB style).
* ``T`` — *temporally invalid* (MESTI, Figure 2): the line is invalid
  for access but retains the last globally visible value so a validate
  can re-install it.
* ``VS`` — *Validate_Shared* (Enhanced MESTI, Figure 3): entered from T
  on a validate; semantically S for local requests, but it does **not**
  assert the shared snoop response on an external ReadX/Upgrade, which
  is how the useful snoop response distinguishes validates that
  prevented a miss from useless ones.
"""

from __future__ import annotations

import enum


class LineState(enum.Enum):
    """Coherence state of one cache line (union over all protocols)."""

    I = "I"  # noqa: E741 - conventional protocol letter
    S = "S"
    E = "E"
    M = "M"
    O = "O"  # noqa: E741 - conventional protocol letter
    T = "T"
    VS = "VS"

    @property
    def readable(self) -> bool:
        """Line satisfies loads locally without a bus transaction."""
        return self in _READABLE

    @property
    def writable(self) -> bool:
        """Line satisfies stores locally without a bus transaction."""
        return self in (LineState.M, LineState.E)

    @property
    def dirty(self) -> bool:
        """This cache is responsible for the only up-to-date copy."""
        return self in (LineState.M, LineState.O)

    @property
    def valid(self) -> bool:
        """Line holds architecturally current data."""
        return self in _READABLE

    @property
    def index(self) -> int:
        """Stable small integer for canonical state encodings.

        The model checker (:mod:`repro.verify`) encodes global states as
        tuples of ints so symmetric states compare and hash cheaply.
        """
        return _STATE_ORDER[self]

    @classmethod
    def parse(cls, text: str) -> "LineState":
        """Parse a state letter (case-insensitive), raising ``KeyError``."""
        return cls[text.upper()]


_READABLE = frozenset(
    {LineState.S, LineState.E, LineState.M, LineState.O, LineState.VS}
)

_STATE_ORDER = {state: i for i, state in enumerate(LineState)}
