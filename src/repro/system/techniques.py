"""The technique matrix of the paper's evaluation (Figures 7 and 8).

A *technique name* is a ``+``-joined combination of:

* ``base``   — the MOESI baseline (implied when nothing else names a
  protocol change);
* ``mesti``  — plain MESTI/MOESTI with unconditional validates;
* ``emesti`` — Enhanced MESTI with the useful-validate predictor;
* ``lvp``    — load value prediction from tag-match invalid lines;
* ``sle``    — speculative lock elision.

``mesti`` and ``emesti`` are mutually exclusive; everything else
composes freely, mirroring the paper's combined-technique runs.
"""

from __future__ import annotations

from repro.coherence.protocol import PROTOCOLS
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError

#: The nine configurations evaluated in Figures 7 and 8.
ALL_TECHNIQUES = (
    "base",
    "mesti",
    "emesti",
    "lvp",
    "sle",
    "emesti+lvp",
    "emesti+sle",
    "lvp+sle",
    "emesti+lvp+sle",
)

#: Technique components that select a protocol, by :data:`PROTOCOLS`
#: name: the paper runs MESTI on its MOESI baseline, so ``mesti`` is
#: MOESTI.
PROTOCOL_PARTS = {"mesti": "moesti", "emesti": "emesti"}


def configure_technique(config: MachineConfig, technique: str) -> MachineConfig:
    """Return ``config`` specialized for ``technique`` (see module doc)."""
    parts = [p for p in technique.lower().split("+") if p]
    if not parts:
        raise ConfigError("empty technique name")
    out = config
    protocol_set = False
    for part in parts:
        if part == "base":
            continue
        if part in PROTOCOL_PARTS:
            if protocol_set:
                raise ConfigError("mesti/emesti are mutually exclusive")
            out = out.with_protocol(**PROTOCOLS[PROTOCOL_PARTS[part]])
            protocol_set = True
        elif part == "lvp":
            out = out.with_lvp(enabled=True)
        elif part == "sle":
            out = out.with_sle(enabled=True)
        else:
            raise ConfigError(f"unknown technique component {part!r}")
    out.validate()
    return out
