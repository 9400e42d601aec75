"""Tests for repro.arch.fifo — handshake token FIFOs (Section 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.arch.fifo import (
    HandshakeFifo,
    match_tokens,
    overflow_error,
    underflow_error,
)


class TestHandshakeFifo:
    def test_push_pop_order(self):
        fifo = HandshakeFifo("f", depth=3)
        fifo.push(10.0)
        fifo.push(20.0)
        assert fifo.pop() == 10.0
        assert fifo.pop() == 20.0

    def test_preload_models_free_halves(self):
        # Ping-pong buffers start with both halves free.
        fifo = HandshakeFifo("free", depth=2, preload=2)
        assert fifo.pop() == 0.0
        assert fifo.pop() == 0.0
        with pytest.raises(SimulationError):
            fifo.pop()

    def test_underflow_is_deadlock_detection(self):
        fifo = HandshakeFifo("f")
        with pytest.raises(SimulationError, match="underflow"):
            fifo.pop()

    def test_overflow_detects_unbalanced_flags(self):
        fifo = HandshakeFifo("f", depth=1)
        fifo.push(1.0)
        with pytest.raises(SimulationError, match="overflow"):
            fifo.push(2.0)

    def test_monotonicity_enforced(self):
        fifo = HandshakeFifo("f", depth=4)
        fifo.push(5.0)
        with pytest.raises(SimulationError, match="non-monotonic"):
            fifo.push(4.0)

    def test_stats(self):
        fifo = HandshakeFifo("f", depth=4, preload=1)
        fifo.push(1.0)
        fifo.push(2.0)
        fifo.pop()
        assert fifo.pushes == 3  # preload counts as a push
        assert fifo.pops == 1
        assert fifo.occupancy == 2
        assert fifo.max_occupancy == 3

    def test_bad_construction(self):
        with pytest.raises(SimulationError):
            HandshakeFifo("f", depth=0)
        with pytest.raises(SimulationError):
            HandshakeFifo("f", depth=2, preload=3)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(st.booleans(), max_size=24),
    depth=st.integers(1, 3),
    preload=st.integers(0, 3),
)
def test_match_tokens_equals_replay(ops, depth, preload):
    """The static matcher finds the replay's first error and, up to it,
    hands every pop the token the replay pops (``True`` = push)."""
    preload = min(preload, depth)
    fifo = HandshakeFifo("f", depth=depth, preload=preload)
    popped, error = [], None
    for position, push in enumerate(ops):
        try:
            if push:
                fifo.push(position + 1)  # token time = producer position + 1
            else:
                popped.append(fifo.pop())
        except SimulationError as exc:
            error = (position, str(exc))
            break
    pushes = np.flatnonzero(np.array(ops, dtype=bool))
    pops = np.flatnonzero(~np.array(ops, dtype=bool))
    match = match_tokens(pushes, pops, depth, preload)
    failures = sorted(
        (position, message)
        for position, message in (
            (match.underflow, str(underflow_error("f"))),
            (match.overflow, str(overflow_error("f", depth))),
        )
        if position >= 0
    )
    assert (failures[0] if failures else None) == error
    assert list(match.sources[: len(popped)] + 1) == popped
