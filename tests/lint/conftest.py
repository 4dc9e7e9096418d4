"""Shared fixtures for the simlint tests."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def shipped_tree_lint():
    """One lint of the shipped tree with every rule — what
    ``repro-sim lint`` runs with no arguments.  A whole-tree lint takes
    seconds, so the tests that check the shipped tree share this one
    result.
    """
    from repro.lint import run_lint

    return run_lint()
