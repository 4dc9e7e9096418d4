"""Symmetry-reduction contracts: one role sort, no node cap, big buses.

The canonical key is the minimum over all node permutations of the
state's encoding.  The checker reaches it with one sort of the nodes by
row and directory role; these tests hold that sort to the brute-force
minimum over all n! relabellings on bus and directory states, and
check that machines of any size explore.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.common.config import InterconnectKind
from repro.verify.checker import ModelChecker
from repro.verify.model import AbstractMachine, ProtocolSpec

DIRECTORY = InterconnectKind.DIRECTORY


def machine(name="mesi", n_nodes=3,
            interconnect=InterconnectKind.BUS, n_lines=1) -> AbstractMachine:
    return AbstractMachine(
        ProtocolSpec(name).make_logic(),
        n_nodes=n_nodes,
        n_lines=n_lines,
        interconnect=interconnect,
    )


def stored_states(checker: ModelChecker) -> dict:
    """Run ``checker``; return each stored key with its witness state."""
    stored = {}
    canonical = checker._canonical

    def recording(state):
        key = canonical(state)
        stored.setdefault(key, state)
        return key

    checker._canonical = recording
    checker.run()
    return stored


def permutation_minimum(state, plain: ModelChecker) -> tuple:
    """The smallest unreduced key over every relabelling of the nodes."""
    nodes, mem, arch, gvis, dirs = state
    keys = []
    for perm in permutations(range(len(nodes))):
        new = {old: i for i, old in enumerate(perm)}
        relabelled = None if dirs is None else tuple(
            (
                None if owner is None else new[owner],
                frozenset(new[s] for s in sharers),
                frozenset(new[s] for s in t_sharers),
            )
            for owner, sharers, t_sharers in dirs
        )
        keys.append(plain._canonical(
            (tuple(nodes[old] for old in perm), mem, arch, gvis, relabelled)
        ))
    return min(keys)


class TestDirectoryNodeCount:
    @pytest.mark.parametrize("symmetry", [True, False],
                             ids=["symmetry", "plain"])
    def test_seven_nodes_explore(self, symmetry):
        # No node count is refused, with or without the reduction.
        checker = ModelChecker(
            machine(n_nodes=7, interconnect=DIRECTORY),
            symmetry=symmetry,
            max_states=500,
        )
        result = checker.run()
        assert result.ok
        assert not result.complete  # bounded, but it ran

    @pytest.mark.parametrize("n_nodes, states",
                             [(2, 96), (3, 484), (4, 1818)])
    def test_mesi_state_counts(self, n_nodes, states):
        result = ModelChecker(
            machine(n_nodes=n_nodes, interconnect=DIRECTORY)
        ).run()
        assert result.ok and result.complete
        assert result.states == states


class TestBusCanonicalization:
    def test_bus_has_no_node_cap(self):
        # Sorting is O(n log n); 8-node bus machines must construct
        # and explore (bounded) without complaint.
        checker = ModelChecker(machine(n_nodes=8), max_states=2000)
        result = checker.run()
        assert result.ok
        assert result.states > 0

    def test_sorted_canonicalization_matches_permutation_minimum(self):
        # Ground truth on bus and directory machines: every stored key
        # equals the explicit minimum over all node permutations, with
        # the directory entries relabelled along.
        runs = [
            (machine(name="mesti"), None),
            (machine(name="emesti", interconnect=DIRECTORY), None),
            (machine(name="mesti", interconnect=DIRECTORY, n_lines=2), 2000),
            (machine(name="emesti", n_nodes=4, interconnect=DIRECTORY),
             2000),
        ]
        for m, max_states in runs:
            plain = ModelChecker(m, symmetry=False)
            stored = stored_states(ModelChecker(m, max_states=max_states))
            assert len(stored) > 1
            for key, state in stored.items():
                assert key == permutation_minimum(state, plain)

    def test_reduction_agrees_with_plain_search_on_violations(self):
        # A buggy protocol must be caught identically with and without
        # the reduction — same violation kind, both non-ok.
        from repro.verify.mutations import mutate

        logic = mutate(
            ProtocolSpec("mesti").make_logic(), "t-ignores-flush"
        )

        def run(symmetry):
            m = AbstractMachine(logic, n_nodes=3)
            return ModelChecker(m, symmetry=symmetry).run()

        with_sym, without = run(True), run(False)
        assert not with_sym.ok and not without.ok
        assert (with_sym.violations[0].kind
                == without.violations[0].kind == "t-discipline")
