"""Shared fixtures for the tier-1 tests."""

import pytest

from qespoly import spectrum


@pytest.fixture(autouse=True)
def fresh_chain_memo():
    """Start every test with an empty chain memo, so that a test counting
    chain solves sees the same calls whatever ran before it."""
    spectrum.solve_chain.cache_clear()
