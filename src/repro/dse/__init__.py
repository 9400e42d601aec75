"""Design space exploration (Section 5.3).

Three steps, matching the paper's algorithm:

1. Enumerate hardware candidates (PT, PI, PO, NI) under the Table-2
   resource constraints (``explore_hardware``).
2. For every candidate, select each layer's best (mode, dataflow) using
   the Eq. 12-15 latency model (``map_network``; ``run_dse`` evaluates
   the same choice for whole candidate batches as numpy columns) —
   O(N x L).
3. Pick the candidate with the lowest total latency (``run_dse``) — O(N).
"""

from repro.dse.space import DseOptions, HardwareCandidate, explore_hardware
from repro.dse.engine import DseResult, map_network, run_dse

__all__ = [
    "DseOptions",
    "DseResult",
    "HardwareCandidate",
    "explore_hardware",
    "map_network",
    "run_dse",
]
