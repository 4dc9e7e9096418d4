"""Transition-table introspection, the static table audit, and coverage.

The checker wants to report which rows of each protocol's transition
table its exploration exercised, and the docs want a table that is
guaranteed to match the implementation.  Both come from the same
place: *probing* the real :class:`~repro.coherence.protocol.
ProtocolLogic` — for every (state, event) pair, run the table code
against a synthetic line and record the outcome (a post state, or
"illegal" when the implementation deliberately raises
:class:`~repro.common.errors.ProtocolError`).

Row keys are ``(side, pre, event)`` as produced by the
``TransitionRecord`` observer hook (see ``protocol.py``):

* remote rows: ``Read``, ``Read+flush``, ``ReadX``, ``ReadX+flush``,
  ``Upgrade``, ``Validate``, ``Writeback`` against each state;
* local rows: fills (``fill.Read.S`` / ``fill.Read.E`` /
  ``fill.ReadX``), ``PrWr.Upgrade``, ``PrWr.Validate``, the silent
  ``PrWr.hit`` E→M upgrade, the ``PrRd.hit`` VS→S demotion, and
  ``evict`` from each state.

Some probe-legal rows are unreachable *because the invariants hold*
(an S copy can never observe a dirty flush: M excludes S).  The
coverage report separates those out — seeing them stay unexercised in
an exhaustive run is itself evidence the invariant held.

:func:`audit_table` judges the probed table before any exploration:
every probe must transition or raise the deliberate ``ProtocolError``,
the raising rows must be exactly those the invariants forbid
(:func:`expected_illegal_rows`), and E-MESTI may differ from the
MOESTI it is built on only in its Validate_Shared rows.
"""

from __future__ import annotations

from repro.coherence.messages import SnoopResult, TxnKind
from repro.coherence.protocol import ProtocolLogic, TransitionRecord

RowKey = tuple[str, str, str]


def _unreachable_reason(
    protocol: ProtocolLogic, pre: str, label: str, directory: bool = False
) -> str | None:
    """Why a probe-legal remote row cannot occur while the invariants hold.

    These rows staying unexercised in an exhaustive run is evidence the
    forbidding invariant (or, with ``directory=True``, the home's
    contact discipline) held, so the coverage report lists them apart
    from genuinely-missing rows.
    """
    flush = label.endswith("+flush")
    if label == "Validate" and not protocol.has_temporal:
        return "without a T state no validate is ever broadcast"
    if pre in ("M", "O") and label in ("Read", "ReadX"):
        return "a dirty copy is always itself the flusher (single dirty owner)"
    if pre == "E" and flush:
        return "E excludes every other copy (SWMR), so no remote flusher exists"
    if pre in ("S", "VS") and flush and not protocol.has_owned:
        return "without an O state a dirty owner excludes clean sharers"
    if label == "Validate" and pre in ("S", "VS"):
        return ("benign real-interconnect race (read granted between a "
                "validate's issue and its grant); the atomic-grant model "
                "has no such window")
    if label == "Writeback":
        if pre in ("M", "E", "O"):
            return "a second dirty copy cannot exist to write back"
        if directory and pre in ("S", "VS"):
            return "writebacks are multicast to tracked T-sharers only"
        if pre in ("S", "VS") and not protocol.has_owned:
            return "writebacks come only from M evictions, which exclude sharers"
    if pre == "T":
        if label == "Upgrade":
            return ("while any T copy exists the only valid copy is the dirty "
                    "owner whose invalidation created it, so no sharer exists "
                    "to issue an upgrade")
        if not directory and label in ("Read", "ReadX"):
            return ("a T copy always coexists with a live dirty owner, whose "
                    "flush makes every read/readx the +flush row")
        if directory and label in ("Read", "Read+flush"):
            return ("the home never contacts T-sharers on reads; a flushing "
                    "read un-tracks them instead")
        if directory and label == "ReadX":
            return ("tracked T-sharers imply a live dirty owner, so an "
                    "invalidating readx always carries its flush")
    if directory:
        if pre == "I" and label in ("Read", "Read+flush"):
            return "reads contact only the listed owner, never invalid residue"
        if (pre == "I" and label in ("ReadX", "Upgrade")
                and not protocol.has_temporal):
            return ("invalid residue is contacted only while tracked, which "
                    "implies a live dirty owner (so readx always flushes) "
                    "and no upgradable sharer")
        if pre == "S" and label in ("Read", "Read+flush") and protocol.has_owned:
            return ("reads contact only the listed owner, which stays dirty "
                    "(M->O) on a flush and retires to O on a validate — "
                    "never plain S")
        if pre == "VS" and label in ("Read", "Read+flush"):
            return ("reads contact only the listed owner; a validating owner "
                    "retires to O, never VS")
    return None


class TransitionCoverage:
    """Observed transition rows, fed by the protocol observer hook."""

    def __init__(self) -> None:
        self.rows: dict[RowKey, set[str]] = {}

    def record(self, rec: TransitionRecord) -> None:
        """Observer callback: remember the row and its outcome."""
        self.rows.setdefault(rec.key, set()).add(rec.post)

    def __len__(self) -> int:
        return len(self.rows)


def expected_rows(
    protocol: ProtocolLogic, directory: bool = False
) -> dict[RowKey, dict]:
    """Probe the implementation for every legal table row.

    Returns ``{row_key: {"post": ..., "unreachable": reason|None}}``
    for rows the implementation accepts; deliberately-illegal rows
    (``ProtocolError`` by design) are excluded — reaching one during
    exploration is reported as a violation, not as coverage.
    """
    rows: dict[RowKey, dict] = {}
    states = protocol.states()
    for pre in states:
        for label in protocol.remote_event_labels():
            outcome = protocol.probe_remote(pre, label)
            if outcome != "illegal":
                rows[("remote", pre.value, label)] = {
                    "post": outcome,
                    "unreachable": _unreachable_reason(
                        protocol, pre.value, label, directory
                    ),
                }

    def local(pre: str, event: str, post: str, unreachable: str | None = None):
        rows[("local", pre, event)] = {"post": post, "unreachable": unreachable}

    fill_sources = ["-", "I", "T"] if protocol.has_temporal else ["-", "I"]
    shared = SnoopResult(shared=True)
    alone = SnoopResult(shared=False)
    for pre in fill_sources:
        local(pre, f"fill.Read.{protocol.fill_state(TxnKind.READ, shared).value}",
              protocol.fill_state(TxnKind.READ, shared).value)
        alone_fill = protocol.fill_state(TxnKind.READ, alone).value
        local(pre, f"fill.Read.{alone_fill}", alone_fill,
              unreachable=(
                  "a load missing from T always finds the live dirty "
                  "owner asserting sharing, so it fills S"
                  if pre == "T" and alone_fill == "E" and not directory
                  else None
              ))
        local(pre, "fill.ReadX",
              protocol.fill_state(TxnKind.READX, alone).value)
    upgrade_sources = ["S"]
    if protocol.has_owned:
        upgrade_sources.append("O")
    if protocol.enhanced:
        upgrade_sources.append("VS")
    for pre in upgrade_sources:
        local(pre, "PrWr.Upgrade", "M")
    local("E", "PrWr.hit", "M")
    if protocol.has_temporal:
        local("M", "PrWr.Validate", protocol.post_validate_state().value)
    if protocol.enhanced:
        local("VS", "PrRd.hit", "S")
    for st in states:
        local(st.value, "evict", "-")
    return rows


def expected_illegal_rows(protocol: ProtocolLogic) -> set[tuple[str, str]]:
    """The (pre, event) remote rows that must raise ProtocolError.

    Derived from the invariants, not from the implementation:

    * M/E snooping an Upgrade — the upgrader claims it holds a shared
      copy, which an exclusive holder contradicts (SWMR);
    * a valid non-T, non-S/VS copy snooping a Validate — the
      validating owner must have held the only valid copy.
    """
    illegal = {("M", "Upgrade"), ("E", "Upgrade"),
               ("M", "Validate"), ("E", "Validate")}
    if protocol.has_owned:
        illegal.add(("O", "Validate"))
    return illegal


def audit_table(protocol: ProtocolLogic, directory: bool = False) -> list[dict]:
    """Judge the probed table statically; one finding per bad row.

    Each finding is ``{"row": [side, pre, event], "kind": ..., "detail":
    ...}``, the kind one of:

    * ``crash`` — the probe raised something other than the deliberate
      ``ProtocolError``: a table hole, not a transition.  A crashing
      table is judged no further, since every later step would crash
      on the same row;
    * ``illegal`` — the row raises ``ProtocolError`` although the
      invariants allow it (:func:`expected_illegal_rows`);
    * ``unguarded`` — the invariants forbid the row but it probes legal;
    * ``asymmetry`` — an E-MESTI row differs from the MOESTI it is
      built on (:class:`ProtocolLogic` over the same config) outside
      the Validate_Shared rows.
    """
    findings: list[dict] = []
    illegal: set[tuple[str, str]] = set()
    for pre in protocol.states():
        for label in protocol.remote_event_labels():
            try:
                if protocol.probe_remote(pre, label) == "illegal":
                    illegal.add((pre.value, label))
            except Exception as exc:  # any other exception is the hole
                findings.append({
                    "row": ["remote", pre.value, label], "kind": "crash",
                    "detail": f"{type(exc).__name__}: {exc}",
                })
    if findings:
        return findings
    expected = expected_illegal_rows(protocol)
    for pre, label in sorted(illegal - expected):
        findings.append({
            "row": ["remote", pre, label], "kind": "illegal",
            "detail": "raises ProtocolError but the invariants allow it",
        })
    for pre, label in sorted(expected - illegal):
        findings.append({
            "row": ["remote", pre, label], "kind": "unguarded",
            "detail": "the invariants forbid it but it probes legal",
        })
    if protocol.enhanced:
        ours = expected_rows(protocol, directory)
        plain = ProtocolLogic(protocol.config)
        base = expected_rows(plain, directory)
        for key in sorted(set(ours) | set(base)):
            posts = [rows[key]["post"] if key in rows else "no row"
                     for rows in (base, ours)]
            # The one allowed difference: Validate_Shared exists only
            # in E-MESTI (Figure 3), so rows entering, leaving or
            # snooped in VS have no MOESTI counterpart.
            if posts[0] == posts[1] or key[1] == "VS" or "VS" in posts:
                continue
            findings.append({
                "row": list(key), "kind": "asymmetry",
                "detail": (f"{protocol.name} gives {posts[1]} where the "
                           f"{plain.name} it is built on gives {posts[0]}"),
            })
    return findings


def coverage_report(
    protocol: ProtocolLogic,
    coverage: TransitionCoverage,
    directory: bool = False,
) -> dict:
    """Compare exercised rows against the probed table.

    Returns a dict with totals, the exercised row list, the reachable
    rows never exercised (``missing`` — these deserve attention), and
    the invariant-unreachable rows that correctly stayed unexercised
    (``unreachable_ok``).
    """
    expected = expected_rows(protocol, directory=directory)
    exercised, missing, unreachable_ok, unexpected = [], [], [], []
    for key, info in sorted(expected.items()):
        if key in coverage.rows:
            exercised.append(
                {"row": list(key), "post": sorted(coverage.rows[key])}
            )
        elif info["unreachable"]:
            unreachable_ok.append(
                {"row": list(key), "why": info["unreachable"]}
            )
        else:
            missing.append({"row": list(key), "post": info["post"]})
    for key in sorted(coverage.rows):
        if key not in expected:
            unexpected.append(
                {"row": list(key), "post": sorted(coverage.rows[key])}
            )
    reachable_total = sum(1 for i in expected.values() if not i["unreachable"])
    return {
        "protocol": protocol.name,
        "rows_total": len(expected),
        "rows_reachable": reachable_total,
        "rows_exercised": len(exercised),
        "exercised": exercised,
        "missing": missing,
        "unreachable_ok": unreachable_ok,
        "unexpected": unexpected,
    }
