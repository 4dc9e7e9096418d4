"""The coherence invariants, written once, and the runtime checker.

:func:`line_violation` judges one line and names the first invariant
it breaks:

* **swmr** — at most one M/E copy, and an M/E copy excludes every
  other valid copy (single-writer / multiple-reader);
* **single-dirty** — at most one M/O copy;
* **data-value** — every valid copy holds ``arch``, the contents loads
  must observe, and when nothing is dirty memory does too;
* **t-discipline** — every T copy saved ``gvis``, the last globally
  visible value, which is what a validate re-installs (§2.2).  On the
  directory only the home's tracked T-sharers are held to it: an
  untracked copy may rot, since no validate will ever reach it.

Each caller passes what it knows.  The model checker
(:mod:`repro.verify.checker`) passes its shadow ``arch`` and ``gvis``
and, on the directory, the home entry's T-sharers.
:class:`CoherenceChecker` audits a real run after every interconnect
grant, for ``repro-sim run --check-invariants`` and the concrete
replay (:mod:`repro.verify.replay`).  A real run keeps no shadow:
``arch`` is the dirty owner's data and ``gvis`` its ``visible`` copy
(what it last published), or memory for both when nothing is dirty,
and on the directory the tracked set is the home entry's
``t_sharers``.  Deadlock and the event-scoped validate checks are the
model's alone (:mod:`repro.verify.checker`, :mod:`repro.verify.model`).

The runtime checker costs a full scan per transaction, so it is a
*debugging* tool: enable it in tests or when chasing a protocol bug,
not in experiment runs.  PHARMsim's functional validation against
SimOS-PPC played this role in the paper (§5.2); this is our
equivalent, per-transaction instead of per-instruction.
"""

from __future__ import annotations

from repro.common.errors import ProtocolError
from repro.coherence.directory import DirectoryNetwork
from repro.coherence.states import LineState


def _fmt(copies) -> str:
    return ", ".join(f"P{n}:{state.value}{list(data)}" for n, state, data in copies)


def line_violation(name, copies, memory, arch, gvis, tracked=None):
    """The first invariant line ``name`` breaks, as ``(kind, detail)``, or None.

    ``copies`` holds one ``(node, state, data)`` per tagged copy, in
    node order.  ``tracked`` is the set of nodes whose T copies must
    hold ``gvis``; None holds every T copy, as on the bus.
    """
    writers = [c for c in copies if c[1].writable]
    valid = [c for c in copies if c[1].valid]
    dirty = [c for c in copies if c[1].dirty]
    if len(writers) > 1:
        return "swmr", f"{name}: multiple M/E owners: {_fmt(writers)}"
    if writers and len(valid) > 1:
        return "swmr", (f"{name}: M/E owner P{writers[0][0]} coexists with "
                        f"valid copies: {_fmt(valid)}")
    if len(dirty) > 1:
        return "single-dirty", f"{name}: multiple dirty copies: {_fmt(dirty)}"
    for node, state, data in valid:
        if data != arch:
            return "data-value", (f"{name}: P{node} ({state.value}) holds "
                                  f"{list(data)} but the architectural "
                                  f"contents are {list(arch)}")
    if not dirty and memory != arch:
        return "data-value", (f"{name}: no dirty copy but memory holds "
                              f"{list(memory)}, architectural contents "
                              f"{list(arch)}")
    for node, state, data in copies:
        if (state is LineState.T and (tracked is None or node in tracked)
                and data != gvis):
            return "t-discipline", (f"{name}: P{node} saved {list(data)} in T "
                                    f"but the last globally visible value "
                                    f"is {list(gvis)}")
    return None


class CoherenceChecker:
    """Audits every line's global state after each transaction grant."""

    def __init__(self, system):
        self.system = system
        self.checks = 0
        self._wrap(system.bus)

    def _wrap(self, bus) -> None:
        original = bus._execute

        def checked(txn, on_complete):
            original(txn, on_complete)
            self.check_line(txn.base)
            self.checks += 1

        bus._execute = checked

    # ------------------------------------------------------------------

    def check_line(self, base: int) -> None:
        """Raise :class:`ProtocolError` if any invariant fails for ``base``."""
        copies = []
        owner = None
        for ctrl in self.system.controllers:
            line = ctrl.lookup(base)
            if line is not None and line.has_data:
                copies.append((ctrl.node_id, line.state, line.data))
                if owner is None and line.state.dirty:
                    owner = line
        memory = self.system.memory.read_line(base)
        if owner is None:
            arch = gvis = memory
        else:
            arch, gvis = owner.data, owner.visible
        bus = self.system.bus
        tracked = (
            bus.entry(base).t_sharers if isinstance(bus, DirectoryNetwork)
            else None
        )
        bad = line_violation(f"{base:#x}", copies, memory, arch, gvis, tracked)
        if bad is not None:
            raise ProtocolError(bad[1])

    def check_all(self) -> None:
        """Audit every line resident anywhere (end-of-run sweep)."""
        bases = set()
        for ctrl in self.system.controllers:
            for line in ctrl.l2.resident_lines():
                bases.add(line.base)
        # Sorted so the first-reported violation (and any stats the
        # checks bump) is independent of set hash order.
        for base in sorted(bases):
            self.check_line(base)
