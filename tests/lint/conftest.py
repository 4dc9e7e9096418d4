"""Shared fixtures for the simlint tests."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def shipped_tree_lint():
    """One lint of the shipped tree: every rule and the committed
    baseline — what ``repro-sim lint`` runs with no arguments.  A
    whole-tree lint takes seconds, so the tests that check the shipped
    tree share this one result.
    """
    from repro.lint import Baseline, run_lint

    return run_lint(baseline=Baseline.load(Baseline.default_path()))
