"""Handshake FIFOs between producer/consumer module pairs (Section 4.1).

The accelerator uses token FIFOs in both directions of each pair
("LOAD_INP and COMP", "LOAD_WGT and COMP", "COMP and SAVE"): the consumer
waits for a *data* token before reading a ping-pong half, the producer
waits for a *free* token before overwriting one.  In the timing
simulator a token is simply the timestamp at which it becomes available.

:class:`HandshakeFifo` models one FIFO token by token.  Because each FIFO
has one in-order producer and one in-order consumer, the k-th pop always
takes the (k - preload)-th push, so :func:`match_tokens` can pair every
pop with its push, and find the first overflow and underflow, from the
push and pop positions alone.  Both raise the same errors.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple

import numpy as np

from repro.errors import SimulationError


def overflow_error(name: str, depth: int) -> SimulationError:
    return SimulationError(
        f"{name}: token overflow (depth {depth}); "
        "the compiler emitted unbalanced handshake flags"
    )


def underflow_error(name: str) -> SimulationError:
    return SimulationError(
        f"{name}: token underflow; a consumer waited on a "
        "token that is never produced (deadlock in program order)"
    )


class HandshakeFifo:
    """Timestamped token FIFO.

    ``depth`` bounds the number of outstanding tokens (ping-pong buffers
    have depth 2).  ``preload`` tokens available at time 0 model the
    initially-free buffer halves.
    """

    def __init__(self, name: str, depth: int = 2, preload: int = 0):
        if depth <= 0:
            raise SimulationError(f"{name}: FIFO depth must be positive")
        if preload < 0 or preload > depth:
            raise SimulationError(
                f"{name}: preload {preload} outside [0, {depth}]"
            )
        self.name = name
        self.depth = depth
        self._tokens: Deque[float] = deque([0.0] * preload)
        self.pushes = preload
        self.pops = 0
        self.max_occupancy = preload

    def push(self, timestamp: float) -> None:
        """Emit a token that becomes visible at ``timestamp``."""
        if len(self._tokens) >= self.depth:
            raise overflow_error(self.name, self.depth)
        if self._tokens and timestamp < self._tokens[-1]:
            # Tokens are produced by an in-order module; a timestamp going
            # backwards indicates a scheduling bug.
            raise SimulationError(
                f"{self.name}: non-monotonic token time {timestamp} "
                f"after {self._tokens[-1]}"
            )
        self._tokens.append(timestamp)
        self.pushes += 1
        self.max_occupancy = max(self.max_occupancy, len(self._tokens))

    def pop(self) -> float:
        """Consume the oldest token; returns its availability time."""
        if not self._tokens:
            raise underflow_error(self.name)
        self.pops += 1
        return self._tokens.popleft()

    @property
    def occupancy(self) -> int:
        return len(self._tokens)

    def __repr__(self) -> str:
        return (
            f"HandshakeFifo({self.name!r}, depth={self.depth}, "
            f"occupancy={self.occupancy})"
        )


class TokenMatch(NamedTuple):
    """Static pairing of one FIFO's pops with its pushes.

    ``sources[k]`` is the position of the push whose token the k-th pop
    takes, or -1 for a preloaded token.  ``underflow`` / ``overflow``
    are the positions of the first pop finding the FIFO empty and the
    first push finding it full (-1 when there is none); entries of
    ``sources`` from an underflow on are meaningless.
    """

    sources: np.ndarray
    underflow: int
    overflow: int


def match_tokens(
    pushes: np.ndarray, pops: np.ndarray, depth: int = 2, preload: int = 0
) -> TokenMatch:
    """Pair the pops of one FIFO with its pushes.

    ``pushes`` and ``pops`` are the ascending program positions of the
    instructions pushing and popping the FIFO; an instruction pops
    before it pushes.
    """
    n_pushes, n_pops = len(pushes), len(pops)
    # Tokens the k-th pop can see: the preload plus every earlier push.
    available = preload + np.searchsorted(pushes, pops, side="left")
    short = np.flatnonzero(available <= np.arange(n_pops))
    # Tokens the j-th push finds queued: the preload and its j
    # predecessors, minus the pops issued up to its instruction.
    queued = (
        preload + np.arange(n_pushes)
        - np.searchsorted(pops, pushes, side="right")
    )
    full = np.flatnonzero(queued >= depth)
    taken = np.arange(n_pops) - preload
    exists = (taken >= 0) & (taken < n_pushes)
    sources = np.full(n_pops, -1, dtype=np.int64)
    sources[exists] = pushes[taken[exists]]
    return TokenMatch(
        sources=sources,
        underflow=int(pops[short[0]]) if short.size else -1,
        overflow=int(pushes[full[0]]) if full.size else -1,
    )
