"""Tier B of the capacity planner: exact event-kernel plan replay.

The finalists Tier A promotes are *verified*, not re-estimated: each
plan's heterogeneous pool is assembled from per-kind session clones
and the target workload is replayed through the full
:class:`~repro.serving.server.ShardServer` stack (batcher, scheduler,
event kernel) — the same oracle `repro serve` runs.

Parallelism is the sweep driver's pinned-payload pool,
:func:`~repro.serving.sweep.map_pinned`: with ``jobs > 1`` a picklable
payload primes each worker once (:meth:`_ReplayState.from_payload`)
with the network, every kind's resolved config and the replay knobs;
workers then verify whichever finalist they pick up.  A finalist's
result depends only on the finalist (the workload is one fixed
request stream, shared by every finalist uncopied), results carry no
wall-clock fields, and they come back in job order — so ``jobs=2``
replays byte-identically to ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.numeric import left_sum
from repro.serving.batcher import BatcherOptions
from repro.serving.server import ShardServer
from repro.serving.workload import WorkloadSpec
from repro.serving.shard import Shard, ShardPool
from repro.serving.traffic import RequestStream


@dataclass(frozen=True)
class ReplayJob:
    """One finalist to verify: a grid index, a shard mix, a batch."""

    plan_index: int
    counts: Tuple[int, ...]
    max_batch: int


class _ReplayState:
    """Per-process replay context: per-kind sessions built once,
    shard clones cached and reused across finalists."""

    def __init__(self, kinds, arrivals, policy, max_wait_s,
                 event_budget, slo_p99_s):
        self.kinds = kinds  # resolved DeviceKind sequence
        #: The untagged replay workload, indices 0..N-1 over the
        #: arrival column.
        self.requests = RequestStream(np.arange(len(arrivals)), arrivals)
        self.policy = policy
        self.max_wait_s = max_wait_s
        self.event_budget = event_budget
        self.slo_p99_s = slo_p99_s
        #: kind index -> shards deployed so far (lazily extended; a
        #: plan needing n shards of a kind reuses the first n).
        self._shards: Dict[int, List[Shard]] = {}

    @classmethod
    def from_payload(cls, payload) -> "_ReplayState":
        from repro.planning.planner import DeviceKind

        (kind_specs, arrivals, policy, max_wait_s, event_budget,
         slo_p99_s) = payload
        kinds = [
            DeviceKind.build(network, device, cfg, weight, seed)
            for network, device, cfg, weight, seed in kind_specs
        ]
        return cls(kinds, arrivals, policy, max_wait_s, event_budget,
                   slo_p99_s)

    def _kind_shards(self, kind_index: int, count: int) -> List[Shard]:
        shards = self._shards.setdefault(kind_index, [])
        kind = self.kinds[kind_index]
        while len(shards) < count:
            index = len(shards)
            session = (
                kind.session if index == 0 else kind.session.clone()
            )
            shards.append(
                Shard(
                    session,
                    name=f"{kind.name}{index}",
                    probe_of=shards[0] if index else None,
                )
            )
        return shards[:count]

    def pool(self, counts: Sequence[int]) -> ShardPool:
        shards: List[Shard] = []
        for kind_index, count in enumerate(counts):
            if count:
                shards.extend(self._kind_shards(kind_index, count))
        if not shards:
            raise PlanningError("replaying an empty plan")
        return ShardPool(shards)

    def run(self, job: ReplayJob) -> dict:
        """One exact, deterministic replay — no wall-clock fields, so
        serial and pooled runs serialise identically."""
        pool = self.pool(job.counts)
        pool.reset()
        server = ShardServer(pool)
        # Tier B finalists are plain open-loop replays — exactly the
        # fast-forward engine's home turf, so engine="auto" selects it
        # and the row records which engine verified the plan.
        report = server.run(WorkloadSpec(
            traffic=self.requests,
            policy=self.policy,
            batcher=BatcherOptions(
                max_batch=job.max_batch, max_wait_s=self.max_wait_s
            ),
            max_events=self.event_budget,
        ))
        p99 = report.latency_percentile(99)
        weight = left_sum([
            count * self.kinds[kind_index].weight
            for kind_index, count in enumerate(job.counts)
        ])
        return {
            "plan": job.plan_index,
            "served": report.count,
            "p99_latency_s": None if p99 != p99 else p99,
            "mean_batch_size": report.mean_batch_size,
            "makespan_seconds": report.makespan_seconds,
            "shard_seconds": report.total_shard_seconds(),
            "billed_shard_seconds": weight * report.makespan_seconds,
            "events_processed": report.events_processed,
            "engine": server.last_engine,
            "slo_ok": bool(
                report.count == len(self.requests)
                and p99 == p99
                and p99 <= self.slo_p99_s
            ),
        }
