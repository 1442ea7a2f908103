"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import HealthCheck, settings

# A single moderate profile: enough examples to find real bugs, no
# per-example deadline (pure-Python geometry can be slow on CI boxes).
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> random.Random:
    """Seeded PRNG for tests that build their own streams."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def brownian_2k() -> list[int]:
    """A small quantized random walk shared by integration-style tests."""
    from repro.data import brownian

    return brownian(2048)


@pytest.fixture(scope="session")
def dow_jones_2k() -> list[int]:
    from repro.data import dow_jones

    return dow_jones(2048)


class _ApplyStall:
    """A ``StreamEngine(apply_hook=...)`` that parks every apply.

    ``entered`` is set once an append has been admitted and reached its
    apply step; ``gate`` releases every parked apply.
    """

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.gate = threading.Event()

    def __call__(self, stream_id, n_items) -> None:
        self.entered.set()
        self.gate.wait(10.0)


@pytest.fixture
def apply_stall():
    """An apply hook that stalls appends until ``apply_stall.gate`` is set.

    Backpressure tests hold a first append in flight with it and offer a
    second one concurrently; the gate is always opened at teardown.
    """
    stall = _ApplyStall()
    yield stall
    stall.gate.set()
