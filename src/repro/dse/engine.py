"""DSE Steps 2 and 3: per-layer mapping and candidate selection.

Step 2 evaluates, for a fixed hardware candidate, every compute layer
under the four (mode x dataflow) combinations with the Eq. 12-15 model
and keeps the argmin — the per-layer design choices are independent
given the hardware, so this is exact, not heuristic.  Step 3 ranks the
candidates by the chosen objective.

:func:`map_network` is the single-design path: scalar
:func:`~repro.estimator.latency.estimate_layer` calls, memoized through
an :class:`~repro.pipeline.cache.EvaluationCache`.  :func:`run_dse`
is one search.  It evaluates candidates only through
:class:`~repro.estimator.vectorized.BatchLayerEstimator`, whose numpy
columns are bit-equal to the scalar model.  It selects and ranks
exactly as a brute-force sweep does, and it evaluates and prunes
exactly as the serial scalar best-first branch-and-bound does:

* **bound order** — a lower bound over *all four* module times
  (``latency >= sum of per-layer min-over-modes
  max(T_CP, T_LDI, T_LDW, T_SV)``, Eq. 6-11) is admissible, and every
  candidate's bound is one column computation
  (:meth:`~repro.estimator.vectorized.BatchLayerEstimator.latency_bounds`).
  Candidates are evaluated in ascending-bound order (a stable sort:
  ties keep enumeration order), so the ``top_k`` fills with the most
  promising designs first;
* **pruning** — a candidate whose bound cannot beat the current
  ``top_k``-th objective is skipped without affecting the winner *or*
  the runners-up.  The ``top_k``-th objective only falls and the
  bounds only rise along the order, so the first candidate pruned
  prunes every later one and the search stops there — the bandwidth
  terms prune memory-bound candidates a compute-only bound would have
  to evaluate;
* **batching** — a batch is an index array into the Step-1
  :class:`~repro.dse.space.HardwareSpace`, sized as :data:`BATCH`
  says, skipping those the bound already prunes at its start; each
  yields an objective column.  The serial branch-and-bound is then
  replayed over the batch, so it admits and counts exactly as the
  one-candidate-at-a-time loop would;
* **top-k only** — candidate, mapping and estimate objects are built
  for the ``top_k`` designs returned: bounds, objectives and the
  Sec. 4.2.4 group counts read the space's columns.  The search makes
  no cache lookup and stores nothing.

Everything runs in the calling thread: there is no thread or process
pool, because starting and feeding one costs more than a whole
batched sweep.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.params import AcceleratorConfig
from repro.errors import DseError, ReproError
from repro.estimator.calibration import CalibrationProfile, get_calibration
from repro.estimator.latency import (
    NetworkEstimate,
    aggregate_gops,
    estimate_layer,
    estimate_network,
)
from repro.estimator.vectorized import BatchLayerEstimator
from repro.fpga.device import FpgaDevice
from repro.fpga.resources import ResourceBudget
from repro.ir.graph import Network
from repro.mapping.partition import fused_pool_for
from repro.mapping.strategy import (
    DATAFLOWS,
    MODES,
    LayerMapping,
    NetworkMapping,
    winograd_supported,
)
from repro.pipeline.cache import CacheStats, EvaluationCache
from repro.dse.space import DseOptions, HardwareSpace, explore_hardware


@dataclass(frozen=True)
class DseResult:
    """The selected design point."""

    device_name: str
    cfg: AcceleratorConfig
    mapping: NetworkMapping
    estimate: NetworkEstimate
    per_instance: ResourceBudget
    total: ResourceBudget
    candidates_considered: int
    runners_up: Tuple["DseResult", ...] = ()
    candidates_evaluated: int = 0
    candidates_pruned: int = 0
    #: Always empty: the search makes no cache lookup.  The field goes
    #: with the evaluation store (ROADMAP item 2).
    cache_stats: CacheStats = CacheStats()

    @property
    def throughput_gops(self) -> float:
        return self.estimate.gops

    @property
    def latency_ms(self) -> float:
        return self.estimate.latency * 1e3

    def summary(self) -> str:
        counts = self.mapping.counts()
        return (
            f"{self.device_name}: {self.cfg.describe()}\n"
            f"  latency {self.latency_ms:.2f} ms/image, "
            f"{self.throughput_gops:.1f} GOPS aggregate\n"
            f"  resources {self.total}\n"
            f"  modes: {counts['wino']} wino / {counts['spat']} spat; "
            f"dataflows: {counts['is']} IS / {counts['ws']} WS"
        )


def map_network(
    cfg: AcceleratorConfig,
    device: FpgaDevice,
    network: Network,
    cache: Optional[EvaluationCache] = None,
) -> Tuple[NetworkMapping, NetworkEstimate]:
    """Step 2: best (mode, dataflow) per layer for a fixed candidate.

    Raises :class:`DseError` when some layer fits no combination (e.g.
    buffers too small for even one group).  With ``cache`` the per-layer
    estimates are memoized (identical results, fewer model evaluations).
    """
    estimate_fn = cache.estimate if cache is not None else estimate_layer
    selections: List[LayerMapping] = []
    for info in network.compute_layers():
        pool = fused_pool_for(network, info.index)
        best = None
        for mode in MODES:
            if mode == "wino" and not winograd_supported(info):
                continue
            for dataflow in DATAFLOWS:
                try:
                    est = estimate_fn(cfg, device, info, mode, dataflow, pool)
                except ReproError:
                    continue
                if best is None or est.latency < best[0]:
                    best = (est.latency, mode, dataflow)
        if best is None:
            raise DseError(
                f"layer {info.layer.name!r} fits no (mode, dataflow) on "
                f"{device.name} with {cfg.describe()}"
            )
        selections.append(LayerMapping(info.layer.name, best[1], best[2]))
    mapping = NetworkMapping(network.name, selections)
    estimate = estimate_network(cfg, device, network, mapping, cache)
    return mapping, estimate


def _objective(
    latency: float, ops: int, instances: int, objective: str
) -> float:
    """Lower is better: the objective of the :class:`NetworkEstimate`
    with this ``latency``, ``ops`` and ``instances``."""
    if objective == "latency":
        return latency
    if objective == "throughput":
        return -aggregate_gops(ops, latency, instances)
    raise DseError(f"unknown objective {objective!r}")


def _candidate_bounds(
    estimator: BatchLayerEstimator,
    space: HardwareSpace,
    objective: str,
    ops: int,
) -> np.ndarray:
    """Objective lower bound per candidate, as column math.

    Latency bounds it as is; throughput is at most ``ops / latency``
    per instance, so ``-gops >= -(ops / bound / 1e9) * instances``
    (``-inf`` for a zero bound), with the space's instance column.
    ``tests/test_dse_oracle.py`` keeps the per-candidate scalar bound
    this must equal bit for bit.
    """
    latency = estimator.latency_bounds(space)
    if objective == "latency":
        return latency
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -(ops / latency / 1e9) * space.instances
    return np.where(latency > 0, bound, -math.inf)


#: Most candidates per evaluated batch: large enough to keep the numpy
#: columns busy, small enough that the bound still skips most of a
#: sweep once the ``top_k`` fills.  The first batch holds ``top_k``
#: (the fewest admissions that can end the search) and each later one
#: twice the last, so group counts are computed only for candidates the
#: search is about to admit.
BATCH = 64


def run_dse(
    device: FpgaDevice,
    network: Network,
    options: Optional[DseOptions] = None,
    cal: Optional[CalibrationProfile] = None,
    candidates: Optional[HardwareSpace] = None,
) -> DseResult:
    """Full 3-step DSE; returns the best design point (with runners-up
    in ``runners_up`` for inspection).

    One search: candidates in ascending-bound order, ``top_k`` at first
    and then twice as many per batch up to :data:`BATCH`, pruned
    against the running ``top_k``-th objective.  Selection and
    ``top_k`` ranking are those of a brute-force sweep, and the
    evaluated/pruned counts those of the serial best-first
    branch-and-bound, bit for bit.  ``cal`` feeds the Step-1 resource
    model.  ``candidates`` may carry a pre-enumerated Step-1 result; a
    space enumerated for another device, other Step-1 options or
    another calibration raises :class:`DseError`.
    """
    options = options or DseOptions()
    if cal is None:
        cal = get_calibration(device.name)
    if candidates is None:
        candidates = explore_hardware(device, options, cal)
    elif not isinstance(candidates, HardwareSpace):
        raise DseError(
            "candidates must be the HardwareSpace of explore_hardware"
        )
    else:
        candidates.check(device, options, cal)

    estimator = BatchLayerEstimator(device, network)
    ops = sum(info.ops for info in network.compute_layers())
    bounds = _candidate_bounds(estimator, candidates, options.objective, ops)
    order = np.argsort(bounds, kind="stable")  # ties keep enumeration order

    scored: List[Tuple[float, int]] = []  # (objective, enumeration index)
    worst_of_top_k: List[float] = []  # max-heap (negated) of size <= top_k

    def kth_best() -> float:
        if len(worst_of_top_k) < options.top_k:
            return math.inf
        return -worst_of_top_k[0]

    # Strict inequality prunes: a candidate tying the k-th best
    # objective could still displace it on enumeration order, so it
    # must be evaluated for the ranking to stay byte-identical.  Along
    # ``order`` the bounds rise and kth_best() falls, so the survivors
    # of a batch are a prefix of it, and a batch that admits none ends
    # the search.
    taken = 0  # candidates of ``order`` evaluated, feasible or not
    size = min(options.top_k, BATCH)
    while True:
        window = order[taken:taken + size]
        batch = window[bounds[window] <= kth_best()]
        if not len(batch):
            break
        latencies = estimator.network_latencies(candidates[batch])
        # The serial loop, replayed: it stops at the first candidate
        # the admissions so far have made prunable.
        for index, latency in zip(batch.tolist(), latencies):
            if bounds[index] > kth_best():
                break
            taken += 1
            if latency is None:
                continue  # some layer fits no (mode, dataflow)
            objective = _objective(
                latency, ops, int(candidates.instances[index]),
                options.objective,
            )
            scored.append((objective, index))
            if len(worst_of_top_k) < options.top_k:
                heapq.heappush(worst_of_top_k, -objective)
            elif objective < -worst_of_top_k[0]:
                heapq.heapreplace(worst_of_top_k, -objective)
        size = min(2 * size, BATCH)
    pruned = len(order) - taken

    if not scored:
        raise DseError(
            f"no candidate can run {network.name!r} on {device.name}"
        )
    # (objective, enumeration index) replicates the stable sort of the
    # brute-force path regardless of evaluation order.
    scored.sort()
    top_ids = [index for _, index in scored[:options.top_k]]
    mapped = estimator.map_candidates(candidates[top_ids])
    top = [candidates[index] for index in top_ids]

    def to_result(candidate, mapping, estimate, runners=()) -> DseResult:
        return DseResult(
            device_name=device.name,
            cfg=candidate.cfg,
            mapping=mapping,
            estimate=estimate,
            per_instance=candidate.per_instance,
            total=candidate.total,
            candidates_considered=len(candidates),
            runners_up=tuple(runners),
            candidates_evaluated=len(scored),
            candidates_pruned=pruned,
        )

    runners = [
        to_result(candidate, *pair)
        for candidate, pair in zip(top[1:], mapped[1:])
    ]
    return to_result(top[0], *mapped[0], runners)
