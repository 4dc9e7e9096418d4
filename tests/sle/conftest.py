"""SLE aborts squash the core's window: check its store index throughout."""

import pytest


@pytest.fixture(autouse=True)
def _store_index_follows_squashes(checked_store_index):
    """Every SLE test runs with the store-index check installed."""
