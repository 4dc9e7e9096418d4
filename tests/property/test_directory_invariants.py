"""Property-based invariants over the directory interconnect."""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import InterconnectKind, ProtocolKind, ValidatePolicy
from repro.coherence.states import LineState
from tests.harness import MemHarness

LINES = [0x10000, 0x10040]
WORDS = [0, 5]

accesses = st.lists(
    st.tuples(
        st.sampled_from(["load", "store"]),
        st.integers(0, 2),
        st.integers(0, len(LINES) - 1),
        st.integers(0, len(WORDS) - 1),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=40,
)


def run_directory_sequence(h, seq):
    shadow: dict = {}
    for kind, proc, line_idx, word_idx, value in seq:
        base = LINES[line_idx]
        widx = WORDS[word_idx]
        addr = base + widx * 8
        if kind == "load":
            _, observed, _ = h.load(proc, addr, spec=False)
            assert observed == shadow.get((base, widx), 0)
        else:
            h.store(proc, addr, value)
            shadow[(base, widx)] = value
        h.drain()
        # Single-writer + value coherence: every valid copy holds the
        # architectural value (catches a rotted T copy re-installed with
        # stale data, not just two disagreeing live copies).
        for b in LINES:
            writers = []
            for ctrl in h.controllers:
                line = ctrl.lookup(b)
                if line is None:
                    continue
                if line.state in (LineState.M, LineState.E):
                    writers.append(ctrl.node_id)
                if line.state.valid:
                    for w in WORDS:
                        assert line.data[w] == shadow.get((b, w), 0), (
                            f"P{ctrl.node_id} {line.state} {b:#x}[{w}]"
                        )
            assert len(writers) <= 1


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seq=accesses)
def test_directory_moesi_invariants(tiny_config, seq):
    cfg = dataclasses.replace(
        tiny_config, n_procs=3, interconnect=InterconnectKind.DIRECTORY
    )
    run_directory_sequence(MemHarness(cfg), seq)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seq=accesses)
def test_directory_emesti_invariants(tiny_config, seq):
    cfg = dataclasses.replace(
        tiny_config, n_procs=3, interconnect=InterconnectKind.DIRECTORY
    ).with_protocol(
        kind=ProtocolKind.MOESTI, enhanced=True,
        validate_policy=ValidatePolicy.PREDICTOR,
    )
    run_directory_sequence(MemHarness(cfg), seq)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seq=accesses)
def test_directory_mesti_invariants(tiny_config, seq):
    cfg = dataclasses.replace(
        tiny_config, n_procs=3, interconnect=InterconnectKind.DIRECTORY
    ).with_protocol(
        kind=ProtocolKind.MESTI, validate_policy=ValidatePolicy.ALWAYS
    )
    run_directory_sequence(MemHarness(cfg), seq)


def test_directory_t_copy_rot(tiny_config):
    """An un-tracked T copy must never be re-installed by a validate.

    A dirty flush observed by a read makes the home stop tracking its
    T-sharers (reads don't contact them, so their saved values can no
    longer match the last globally visible value).  A later validate is
    multicast to the *tracked* T-sharers only — the rotted copy has to
    stay dead even though its holder still caches the line in T.
    """
    cfg = dataclasses.replace(
        tiny_config, n_procs=3, interconnect=InterconnectKind.DIRECTORY
    ).with_protocol(
        kind=ProtocolKind.MESTI, validate_policy=ValidatePolicy.ALWAYS
    )
    h = MemHarness(cfg)
    base = 0x10000

    h.load(1, base, spec=False)          # P1 fills clean
    h.drain()
    h.store(0, base, 1)                  # P0 writes: P1 -> T (saved 0), tracked
    h.drain()
    assert h.controllers[1].lookup(base).state is LineState.T
    assert 1 in h.bus.entry(base).t_sharers

    h.load(2, base, spec=False)          # dirty flush: 1 becomes visible
    h.drain()
    # The home stopped tracking P1; its T copy (saved 0) has rotted.
    assert not h.bus.entry(base).t_sharers
    assert h.controllers[1].lookup(base).state is LineState.T

    h.store(0, base, 2)                  # P2 -> T (saved 1), tracked
    h.drain()
    h.store(0, base, 1)                  # revert to 1: validate multicast
    h.drain()

    # The tracked T copy is re-installed with the correct saved value...
    line2 = h.controllers[2].lookup(base)
    assert line2 is not None and line2.state.valid and line2.data[0] == 1
    # ...but the rotted one stays dead: re-installing its stale 0 would
    # break the data-value invariant.
    line1 = h.controllers[1].lookup(base)
    assert line1 is None or not line1.state.valid
    # And a real read still observes the architectural value.
    _, observed, _ = h.load(1, base, spec=False)
    h.drain()
    assert observed == 1
