"""Generator, oracle, minimizer, and mutant-sampling unit contracts."""

from __future__ import annotations

from repro.common.config import InterconnectKind
from repro.common.rng import SplitRng
from repro.fuzz.generator import (
    MAX_NODES,
    MAX_OPS_PER_NODE,
    generate_test,
    make_schedule,
    retarget,
)
from repro.fuzz.campaign import random_descriptor
from repro.fuzz.minimize import minimize_test
from repro.fuzz.oracle import derive_allowed, enumerate_outcomes
from repro.verify.model import ProtocolSpec
from repro.verify.mutations import (
    SEEDED,
    descriptor_name,
    inapplicable,
    mutate,
    seeded_plan,
)


def rng(seed=0, name="test"):
    return SplitRng(seed).split(name)


class TestGenerator:
    def test_deterministic_per_stream(self):
        a = generate_test(rng(5), 0)
        b = generate_test(rng(5), 0)
        assert a.programs == b.programs
        assert (a.n_lines, a.n_words) == (b.n_lines, b.n_words)

    def test_respects_size_bounds(self):
        for i in range(20):
            test = generate_test(rng(i, f"iter/{i}"), i)
            assert 2 <= len(test.programs) <= MAX_NODES
            assert all(
                len(p) <= MAX_OPS_PER_NODE for p in test.programs
            )

    def test_always_observable(self):
        # The oracle compares final loads; a test with no load (or no
        # store) could never distinguish protocols.
        for i in range(20):
            test = generate_test(rng(i, f"iter/{i}"), i)
            ops = [op[0] for p in test.programs for op in p]
            assert "load" in ops and "store" in ops

    def test_schedule_covers_every_op(self):
        test = generate_test(rng(3), 0)
        schedule, decisions = make_schedule(rng(3, "sched"), test)
        op_count = sum(len(p) for p in test.programs)
        assert sum(1 for e in schedule if e[0] == "op") == op_count
        assert len(decisions) > 0
        assert all(d in ("validate", "quiet") for d in decisions)

    def test_retarget_recomputes_observed(self):
        test = generate_test(rng(9), 0)
        smaller = retarget(test, [[("load", 0, 0)], [("store", 0, 0, 1)]])
        assert len(smaller.programs) == 2
        assert smaller.name == test.name


class TestOracle:
    def test_reference_enumeration_is_complete_and_clean(self):
        test = generate_test(rng(1), 0)
        allowed, reference = derive_allowed(test, "bus")
        assert reference.ok and reference.complete
        assert allowed, "at least one outcome is always reachable"

    def test_protocols_agree_with_reference_oracle(self):
        # The data-value invariant: MESTI/E-MESTI reach exactly the
        # MESI outcomes on any workload.
        test = generate_test(rng(2), 0)
        allowed, _ = derive_allowed(test, "bus")
        for protocol in ("mesti", "emesti"):
            result = enumerate_outcomes(ProtocolSpec(protocol), test, "bus")
            assert result.ok, result.violation
            assert frozenset(result.outcomes) == allowed

    def test_outcomes_carry_shortest_witness(self):
        test = generate_test(rng(4), 0)
        result = enumerate_outcomes(ProtocolSpec("mesi"), test, "bus")
        for outcome, trace in result.outcomes.items():
            assert len(trace) <= sum(len(p) for p in test.programs)


class TestMinimizer:
    def test_minimizes_to_smallest_reproducer(self):
        test = generate_test(rng(6), 0)
        # "Reproduces" = still contains a store.  The floor is 2 ops:
        # retarget re-adds one load when none survive (every test must
        # observe something), so store + observer load remain.
        def has_store(t):
            return any(op[0] == "store" for p in t.programs for op in p)

        minimized, used = minimize_test(test, has_store, attempts=512)
        assert has_store(minimized)
        ops = sum(len(p) for p in minimized.programs)
        assert ops == 2
        assert len(minimized.programs) >= 2
        assert used >= 1

    def test_irreducible_input_returned_unchanged(self):
        test = generate_test(rng(7), 0)
        minimized, _used = minimize_test(test, lambda t: False)
        assert minimized.programs == test.programs


class TestMutator:
    def test_seeded_plan_covers_all_verify_mutations(self):
        # Each bug runs on MESI unless it needs a T state (derived from
        # the descriptor, not listed).
        assert seeded_plan() == (
            ("mesi", ("seeded", "fill-exclusive-on-shared-read")),
            ("mesti", ("seeded", "t-ignores-flush")),
            ("mesti", ("seeded", "validate-installs-m")),
        )
        assert [d[1] for _proto, d in seeded_plan()] == sorted(SEEDED)

    def test_directory_plan_leaves_out_bus_only_mutations(self):
        names = [d[1] for _proto, d in seeded_plan(InterconnectKind.DIRECTORY)]
        assert names == sorted(set(SEEDED) - {"t-ignores-flush"})

    def test_apply_descriptor_leaves_spec_pristine(self):
        spec = ProtocolSpec("mesti")
        before = spec.make_logic()
        mutated = mutate(before, ("post-validate", "M"))
        assert mutated is not before
        # A fresh logic from the same spec is unaffected by the patch.
        fresh = spec.make_logic()
        assert fresh.post_validate_state() == before.post_validate_state()
        assert mutated.post_validate_state().value == "M"

    def test_random_descriptors_deterministic_and_named(self):
        spec = ProtocolSpec("emesti")
        a = random_descriptor(rng(11), spec, InterconnectKind.BUS)
        b = random_descriptor(rng(11), spec, InterconnectKind.BUS)
        assert a == b
        assert descriptor_name(a)
        # Descriptors must be picklable plain tuples for the worker
        # pool path.
        import pickle

        pickle.loads(pickle.dumps(a))

    def test_random_descriptors_avoid_dead_rows(self):
        """A sampled remote row is live on the campaign's interconnect:
        a dead row's mutant behaves exactly like the real table."""
        for interconnect in InterconnectKind:
            for name in ProtocolSpec.NAMES:
                spec = ProtocolSpec(name)
                logic = spec.make_logic()
                for i in range(40):
                    descriptor = random_descriptor(
                        rng(i, f"live/{name}"), spec, interconnect
                    )
                    assert inapplicable(logic, descriptor, interconnect) is None, (
                        interconnect, descriptor,
                    )

    def test_temporal_shapes_not_offered_on_plain_protocols(self):
        spec = ProtocolSpec("mesi")
        for i in range(30):
            descriptor = random_descriptor(
                rng(i, f"d/{i}"), spec, InterconnectKind.BUS
            )
            assert descriptor[0] not in ("post-validate", "revalidated")
