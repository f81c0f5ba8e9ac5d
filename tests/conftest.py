"""Shared prime tables, built once per session, and a fill-width patch.

The medium table carries a small margin past 10^6 because progression class
values for x = 10^6, q = 5 reach n*q + a = 10^6 + 1.
"""

import contextlib

import pytest

from pretentious import funcspec
from pretentious.arith import PrimeTable


@pytest.fixture(scope="session")
def table_small():
    return PrimeTable(2 * 10**4)


@pytest.fixture(scope="session")
def table_medium():
    return PrimeTable(10**6 + 8)


@pytest.fixture(scope="session")
def table_large():
    return PrimeTable(10**7)


@pytest.fixture(scope="session")
def block_width():
    """block_width(w) is a context in which every fill block is w wide, int8
    ones included, so that small x still spans many blocks."""

    @contextlib.contextmanager
    def patched(width: int):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(funcspec, "FILL_BLOCK_WIDTH", width)
            mp.setattr(funcspec, "SIGN_FILL_BLOCK_WIDTH", width)
            yield

    return patched
