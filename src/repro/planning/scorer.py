"""Tier A of the capacity planner: vectorized analytic plan scoring.

A *plan* is ``(shard counts per device kind, pool-wide max_batch)``.
The scorer turns the whole plan grid into numpy column math built on
per-``(kind, batch)`` service-time tables: ``ceil(batch / NI_k) *
t_k`` seconds per dispatched batch, where ``t_k`` is the kind's
per-image service time (the Eq. 12-15 analytical latency, calibrated
to simulated time by one timing probe per kind — the same
analytical-vs-probe distinction as
:meth:`~repro.serving.shard.ShardPool.capacity_images_per_second` vs
:meth:`~repro.serving.shard.ShardPool.simulated_images_per_second`).

Two kinds of output per plan:

* **admissible feasibility bounds** — prune reasons that are *proofs*
  of replay infeasibility, never heuristics (``docs/planning.md``
  carries the argument; ``tests/test_planning_properties.py`` attacks
  it with randomized grids):

  - *service floor*: every served request spends at least one service
    round ``t_k`` on its shard, so ``min over used kinds of t_k``
    lower-bounds every latency — above the SLO, the plan cannot
    possibly meet it;
  - *capacity backlog*: a shard completes at most ``NI_k / t_k``
    images per second, so the ``j``-th completion happens no earlier
    than ``j / mu`` with ``mu`` the aggregate cap.  With ``N``
    requests, the nearest-rank p99 is the ``r = ceil(0.99 N)``-th
    order statistic, and the ``N - r + 1`` last-completing requests
    all have latency ``>= r / mu - A_max`` (``A_max`` = last arrival).
    Above the SLO, the *replayed* p99 is too — whatever the batcher,
    policy or batch mix does.

* **a ranking surrogate** — utilisation against the batch-aware
  effective capacity, an M/D/c-style waiting-time estimate (Erlang-C
  with deterministic-service halving), batch-fill latency, a projected
  p99 and billed shard-seconds.  The surrogate only *orders* plans for
  Tier B replay; it proves nothing, which is why the final report
  prints it next to the replayed numbers so its error stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import PlanningError
from repro.serving.traffic import RequestStream

#: Prune reasons, indexable by the codes in :attr:`PlanScores.pruned`.
#: Code 0 means "not pruned".
PRUNE_REASONS = ("", "service-floor", "capacity-backlog")

#: Tail quantile the planner projects and verifies (nearest-rank p99).
TAIL_QUANTILE = 0.99


@dataclass(frozen=True)
class ArrivalProfile:
    """The workload summary Tier A scores against.

    ``count`` requests at mean ``rate`` images/s, the last arriving
    ``last_arrival_s`` after the first.  Built from the *materialised*
    request stream (synthetic or trace replay), so the capacity bound
    sees the actual ``A_max``, not a model of it.
    """

    count: int
    rate: float
    last_arrival_s: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise PlanningError(
                f"arrival profile needs >= 1 request, got {self.count}"
            )
        if self.last_arrival_s < 0 or not math.isfinite(
            self.last_arrival_s
        ):
            raise PlanningError(
                f"last arrival must be finite and >= 0, "
                f"got {self.last_arrival_s}"
            )
        if self.rate <= 0:
            raise PlanningError(
                f"arrival rate must be positive, got {self.rate}"
            )

    @classmethod
    def from_requests(cls, requests) -> "ArrivalProfile":
        """Profile of a request stream or list (sorted or not)."""
        arrivals = RequestStream.of(requests).arrivals
        if not len(arrivals):
            raise PlanningError("arrival profile of an empty workload")
        first, last = float(arrivals.min()), float(arrivals.max())
        span = last - first
        count = len(arrivals)
        # Simultaneous arrivals (the "uniform" model) have no finite
        # mean rate; use an effectively-infinite one so utilisation
        # saturates and only the admissible bounds decide anything.
        rate = (count - 1) / span if span > 0 and count > 1 else math.inf
        return cls(count=count, rate=rate, last_arrival_s=span)


@dataclass(frozen=True)
class PlanScores:
    """Per-plan columns of one :meth:`AnalyticPlanScorer.score` call.

    Arrays are aligned with the scored ``counts`` rows.  ``pruned``
    holds :data:`PRUNE_REASONS` codes (0 = kept); pruned plans carry
    NaN surrogate columns — there is nothing meaningful to rank.
    """

    capacity_img_s: np.ndarray  # admissible aggregate cap (NI_k/t_k)
    effective_img_s: np.ndarray  # batch-aware achievable rate
    utilisation: np.ndarray  # offered load / effective capacity
    queue_wait_p99_s: np.ndarray  # M/D/c-style waiting-tail surrogate
    fill_wait_s: np.ndarray  # batch-fill latency at the arrival rate
    service_p99_s: np.ndarray  # worst-kind full-batch service time
    p99_s: np.ndarray  # projected p99 (queue + fill + service)
    billed_weight: np.ndarray  # sum of counts x kind cost weights
    billed_shard_seconds: np.ndarray  # weight x projected makespan
    makespan_s: np.ndarray  # projected run span
    pruned: np.ndarray  # int codes into PRUNE_REASONS
    feasible: np.ndarray  # surrogate verdict: p99_s <= SLO, kept

    def __len__(self) -> int:
        return len(self.pruned)


class AnalyticPlanScorer:
    """Vectorized scorer over one set of device kinds.

    ``service_seconds[k]`` is kind *k*'s per-image service time in
    simulated seconds, ``instances[k]`` its batch-parallel instance
    count, ``weights[k]`` its billing weight (shard-seconds of kind
    *k* bill ``weights[k]`` per second — the natural default is the
    instance count, so a 6-instance VU9P shard costs six times a
    1-instance PYNQ shard).
    """

    def __init__(
        self,
        service_seconds: Sequence[float],
        instances: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ):
        self.service_seconds = np.asarray(service_seconds, dtype=float)
        self.instances = np.asarray(instances, dtype=float)
        if self.service_seconds.ndim != 1 or self.service_seconds.size == 0:
            raise PlanningError("scorer needs >= 1 device kind")
        if self.instances.shape != self.service_seconds.shape:
            raise PlanningError(
                f"{self.instances.size} instance counts for "
                f"{self.service_seconds.size} service times"
            )
        if not np.all(np.isfinite(self.service_seconds)) or np.any(
            self.service_seconds <= 0
        ):
            raise PlanningError("service times must be positive and finite")
        if np.any(self.instances < 1):
            raise PlanningError("instance counts must be >= 1")
        if weights is None:
            weights = self.instances
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != self.service_seconds.shape or np.any(
            self.weights <= 0
        ):
            raise PlanningError(
                "billing weights must be positive, one per kind"
            )

    @property
    def kinds(self) -> int:
        return self.service_seconds.size

    def batch_service_seconds(self, batches: np.ndarray) -> np.ndarray:
        """The per-``(plan, kind)`` service-time table: what one
        dispatched batch of the plan's ``max_batch`` costs on each
        kind (``ceil(batch / NI_k) * t_k``)."""
        rounds = np.ceil(
            batches[:, None] / self.instances[None, :]
        )
        return rounds * self.service_seconds[None, :]

    def score(
        self,
        counts: np.ndarray,
        batches: np.ndarray,
        profile: ArrivalProfile,
        slo_p99_s: float,
        max_wait_s: float = 0.0,
    ) -> PlanScores:
        """Score every ``(counts row, batch)`` plan as column ops.

        ``counts`` is ``(plans, kinds)`` shard counts, ``batches`` the
        matching pool-wide batcher budget per plan.  Plans must field
        at least one shard (the grid never emits the empty plan).
        """
        counts = np.asarray(counts, dtype=float)
        batches = np.asarray(batches, dtype=float)
        if counts.ndim != 2 or counts.shape[1] != self.kinds:
            raise PlanningError(
                f"counts must be (plans, {self.kinds}), "
                f"got {counts.shape}"
            )
        if batches.shape != (counts.shape[0],):
            raise PlanningError(
                f"{batches.shape} batch column for "
                f"{counts.shape[0]} plans"
            )
        if np.any(counts < 0) or np.any(batches < 1):
            raise PlanningError(
                "shard counts must be >= 0 and batches >= 1"
            )
        if np.any(counts.sum(axis=1) == 0):
            raise PlanningError("a plan fields zero shards")
        if slo_p99_s <= 0 or not math.isfinite(slo_p99_s):
            raise PlanningError(
                f"SLO target must be positive and finite, "
                f"got {slo_p99_s}"
            )
        if max_wait_s < 0:
            raise PlanningError(
                f"max_wait_s must be >= 0, got {max_wait_s}"
            )

        used = counts > 0
        rate = profile.rate

        # -- admissible bounds (prune codes 1 and 2) ------------------
        # Service floor: every request pays at least one service round
        # on whichever shard serves it.
        floor = np.where(
            used, self.service_seconds[None, :], np.inf
        ).min(axis=1)
        # Capacity backlog: mu is an upper bound on the pool's
        # completion rate, whatever the batch mix.
        capacity = counts @ (self.instances / self.service_seconds)
        tail_rank = math.ceil(TAIL_QUANTILE * profile.count)
        backlog_p99 = tail_rank / capacity - profile.last_arrival_s
        pruned = np.zeros(len(counts), dtype=int)
        pruned[backlog_p99 > slo_p99_s] = 2
        pruned[floor > slo_p99_s] = 1  # the simpler proof wins ties

        # -- ranking surrogate (never prunes) -------------------------
        # Batch-aware effective capacity: a shard dispatching batches
        # of B serves B images per ceil(B/NI) rounds, which is below
        # the NI/t cap whenever B is not a multiple of NI.
        table = self.batch_service_seconds(batches)  # (plans, kinds)
        per_shard_rate = batches[:, None] / table
        effective = (counts * per_shard_rate).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            utilisation = np.where(
                effective > 0, rate / effective, np.inf
            )
        servers = (counts * self.instances[None, :]).sum(axis=1)
        queue_wait = _mdc_wait_p99(
            servers, utilisation, effective, rate
        )
        if math.isfinite(rate):
            fill = np.minimum(max_wait_s, (batches - 1.0) / rate)
        else:
            fill = np.zeros_like(batches)
        service_p99 = np.where(used, table, -np.inf).max(axis=1)
        p99 = queue_wait + fill + service_p99
        makespan = profile.last_arrival_s + p99
        weight = counts @ self.weights
        billed = weight * makespan
        feasible = (pruned == 0) & (p99 <= slo_p99_s)

        keep = pruned == 0
        nan = np.where(keep, 1.0, np.nan)
        return PlanScores(
            capacity_img_s=capacity,
            effective_img_s=effective,
            utilisation=utilisation * nan,
            queue_wait_p99_s=queue_wait * nan,
            fill_wait_s=fill * nan,
            service_p99_s=service_p99 * nan,
            p99_s=p99 * nan,
            billed_weight=weight,
            billed_shard_seconds=billed * nan,
            makespan_s=makespan * nan,
            pruned=pruned,
            feasible=feasible,
        )


def _mdc_wait_p99(
    servers: np.ndarray,
    utilisation: np.ndarray,
    effective: np.ndarray,
    rate: float,
) -> np.ndarray:
    """M/D/c-style p99 waiting-time surrogate, vectorized over plans.

    Erlang-C delay probability via the Erlang-B recurrence (iterated
    to the largest server count, masked per plan), an exponential
    waiting tail ``P(W > t) = C exp(-(mu - lambda) t)`` solved for the
    99th percentile, and the classic deterministic-service halving of
    the M/M/c wait.  Saturated plans (utilisation >= 1) get an
    infinite wait — the surrogate cannot rank them feasible, though
    only the *admissible* bounds may prune.
    """
    servers = np.maximum(servers, 1.0)
    rho = np.clip(utilisation, 0.0, None)
    stable = (rho < 1.0) & np.isfinite(rho)
    offered = servers * rho
    # Erlang-B recurrence B_k = a B_{k-1} / (k + a B_{k-1}), stopping
    # at each plan's own server count.
    blocking = np.ones_like(offered)
    top = int(servers.max()) if servers.size else 0
    for k in range(1, top + 1):
        grow = servers >= k
        updated = (offered * blocking) / (k + offered * blocking)
        blocking = np.where(grow, updated, blocking)
    with np.errstate(divide="ignore", invalid="ignore"):
        delay_p = np.where(
            stable,
            blocking / (1.0 - rho * (1.0 - blocking)),
            1.0,
        )
        drain = effective - rate  # (mu - lambda), images/s
        tail = np.log(np.maximum(delay_p, 1e-300) / 0.01)
        wait = np.where(
            stable & (drain > 0),
            0.5 * np.maximum(tail, 0.0) / np.maximum(drain, 1e-300),
            np.inf,
        )
    return wait
