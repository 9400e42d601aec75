"""The serve loop: event sources -> kernel -> batcher/scheduler/shards.

:class:`ShardServer` runs one discrete-event simulation per
:meth:`~ShardServer.serve` call on a fresh
:class:`~repro.serving.events.EventKernel`:

* **sources** (open-loop lists, closed-loop client pools, failure
  scenarios) prime the kernel with their initial events;
* the **batcher** consumes ``Arrival`` events and dispatches batches
  (size trigger inline, wait trigger via ``Flush`` wakeups);
* the **scheduler** picks an available shard per batch (its
  ``ShardDown``/``ShardUp`` handlers maintain availability);
* each **shard** places the batch on its virtual timeline, and the
  server emits one ``BatchDone`` per completion round — the events
  that feed closed-loop clients, the SLO controller's latency window,
  and the usage accounting;
* an optional **SLO controller** sheds or reroutes dispatches while
  its windowed p99 estimate is breached;
* an optional **autoscaler** drives the pool between min and max
  shards against a utilisation or p99 target (standby shards start
  down, scale-ups warm up before accepting work, scale-downs re-queue
  in-flight work like a failure would);
* a **failure scenario** kills/restores shards mid-stream: the dying
  shard's pending completion events are cancelled and its un-completed
  requests re-enter the batcher at the failure instant (original
  arrival kept, so their latency accounts the lost work); with the
  whole pool down, batches park and re-dispatch on the next restore
  (parked forever ⇒ counted in ``ServingReport.unserved``).

Everything is deterministic: same traffic, same pool, same policy (and
same scenario/SLO options) ⇒ same :class:`ServingReport`, byte for
byte.  Open-loop runs produce the exact flush/assign/execute sequence
of the pre-kernel implementation.

:func:`analytical_reference` computes the
:class:`~repro.runtime.batch.BatchRunner` number the acceptance
criterion compares against: the makespan of splitting the whole
request set round-robin over the shards as one closed-loop batch.  For
uniform traffic with a divisible batch budget, ``serve`` must agree
with it to well under 1%.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Union

from repro.errors import ServingError
from repro.serving.autoscaler import AutoscalerController, AutoscalerOptions
from repro.serving.batcher import BatcherOptions, DynamicBatcher
from repro.serving.events import (
    Arrival,
    BatchDone,
    EventKernel,
    EventSource,
    ShardDown,
    ShardUp,
)
from repro.serving.chaos import ChaosScenario
from repro.serving.fastforward import fastforward_serve, ineligible_reason
from repro.serving.metrics import (
    RequestColumns,
    RequestRecord,
    ServingReport,
    ShardUsage,
)
from repro.serving.scenarios import FailureScenario
from repro.serving.scheduler import (
    Scheduler,
    SchedulingPolicy,
    ShortestExpectedLatency,
    WeightedFair,
)
from repro.serving.shard import Shard, ShardPool
from repro.serving.slo import SloController, SloOptions
from repro.serving.tenancy import TenantSet
from repro.serving.traffic import OpenLoopSource, Request
from repro.serving.workload import ENGINES, WorkloadSpec

#: What ``serve`` accepts: an open-loop request list or one event
#: source.  One source per run: request indices are the identity that
#: keys completion bookkeeping, and independent sources would mint
#: colliding indices.
Traffic = Union[Sequence[Request], EventSource]

#: What ``serve`` accepts as a scenario: the legacy kill/restore
#: :class:`FailureScenario` or the composable
#: :class:`~repro.serving.chaos.ChaosScenario` — both prime typed
#: events onto the kernel, so the server treats them identically.
Scenario = Union[FailureScenario, ChaosScenario]

__all__ = [
    "ENGINES",
    "Scenario",
    "ShardServer",
    "Traffic",
    "WorkloadSpec",
    "analytical_reference",
]


class _Usage:
    """Mutable per-shard accumulator, event-sourced from ``BatchDone``.

    Counting *completions* (not dispatches) is what makes failure
    scenarios honest: work lost to a kill was executed but never
    finished, so it appears in no shard's usage and in no record.
    """

    __slots__ = ("requests", "batches", "busy_seconds")

    def __init__(self) -> None:
        self.requests = 0
        self.batches = 0
        self.busy_seconds = 0.0


class _ServeRun:
    """One serve() invocation: kernel wiring + run state."""

    def __init__(
        self,
        server: "ShardServer",
        source: EventSource,
        scenario: Optional[Scenario],
        max_events: Optional[int] = None,
    ):
        self.server = server
        self.source = source
        self.scenario = scenario
        self.max_events = max_events
        self.kernel = EventKernel()
        self.tenants = server.tenants
        tenant_targets = self.tenants.slo_targets()
        self.slo = (
            SloController(server.slo, self.tenants)
            if server.slo is not None or tenant_targets else None
        )
        self.autoscaler = (
            AutoscalerController(server.autoscale)
            if server.autoscale is not None else None
        )
        self.records: List[RequestRecord] = []
        self.usage: Dict[str, _Usage] = {
            shard.name: _Usage() for shard in server.pool
        }
        #: Pending completion entries per shard: (heap entry, event).
        #: A deque: completions pop in dispatch order, so the head
        #: check in ``_on_batch_done`` is O(1) — a list's ``del [0]``
        #: made long replays quadratic in the queue depth.
        self.inflight: Dict[str, Deque] = {
            shard.name: deque() for shard in server.pool
        }
        self.total_ops = 0
        self.shed = 0
        self.rerouted = 0
        self.admission_shed = 0
        self.shed_by_tenant: Dict[str, int] = {}
        self.admission_by_tenant: Dict[str, int] = {}
        #: Admission control: per-tenant caps on outstanding (admitted,
        #: not yet completed) requests.  ``_admitted`` remembers which
        #: indices hold an admission slot so a failure re-delivery of
        #: an admitted request is never re-gated (and never
        #: double-counted).
        self.caps = self.tenants.admission_caps()
        self.outstanding: Dict[str, int] = {
            name: 0 for name in self.caps
        }
        self._admitted: Set[int] = set()
        self._reroute_policy = ShortestExpectedLatency()
        self.parked: List[List[Request]] = []

    # -- wiring -----------------------------------------------------------

    def execute(self) -> ServingReport:
        kernel = self.kernel
        server = self.server
        server.pool.reset()
        server.scheduler.reset()
        # Subscription order is dispatch order: the scheduler flips
        # availability first, then the server reworks in-flight /
        # parked batches against the new availability.
        server.scheduler.attach(kernel)
        server.batcher.attach(
            kernel,
            self._dispatch,
            self.tenants,
            self._admit if self.caps else None,
        )
        kernel.subscribe(BatchDone, self._on_batch_done)
        kernel.subscribe(ShardDown, self._on_shard_down)
        kernel.subscribe(ShardUp, self._on_shard_up)
        if self.slo is not None:
            self.slo.attach(kernel)
        if self.autoscaler is not None:
            # After the scheduler/server handlers (availability flips
            # and re-queues settle before the controller records) and
            # after pool.reset (the standby cut applies to a fresh
            # pool).
            self.autoscaler.attach(kernel, server.pool)
        if self.scenario is not None:
            self.scenario.prime(kernel, server.pool)
        # Time the kernel, not the model: priming + draining is the
        # whole event loop, and events/s over it is the serving
        # layer's perf trajectory metric.
        start = time.perf_counter()
        self.source.prime(kernel)
        if self.max_events is None:
            processed = kernel.run()
        else:
            processed = kernel.run(self.max_events)
        wall = time.perf_counter() - start
        return self._report(processed, wall)

    # -- admission path ---------------------------------------------------

    def _admit(self, kernel: EventKernel, request: Request) -> bool:
        """Admission gate the batcher runs per arrival: a tenant at its
        outstanding-request cap has the request rejected *here*, before
        it ever occupies a queue — a first-class shed reason, counted
        separately from SLO sheds."""
        cap = self.caps.get(request.tenant)
        if cap is None:
            return True
        if request.index in self._admitted:
            return True  # failure re-delivery: its slot is still held
        if self.outstanding[request.tenant] >= cap:
            self.shed += 1
            self.admission_shed += 1
            self._count_shed(self.shed_by_tenant, [request])
            self._count_shed(self.admission_by_tenant, [request])
            self.source.on_shed(kernel, [request], kernel.now)
            return False
        self.outstanding[request.tenant] += 1
        self._admitted.add(request.index)
        return True

    def _release(self, requests: Sequence) -> None:
        """Give back the admission slots of completed/shed requests
        (accepts records or requests — both carry index + tenant)."""
        if not self._admitted:
            return
        for request in requests:
            if request.index in self._admitted:
                self._admitted.discard(request.index)
                self.outstanding[request.tenant] -= 1

    @staticmethod
    def _count_shed(
        counts: Dict[str, int], requests: Sequence[Request]
    ) -> None:
        for request in requests:
            counts[request.tenant] = counts.get(request.tenant, 0) + 1

    # -- dispatch path ----------------------------------------------------

    def _dispatch(
        self, kernel: EventKernel, at: float, batch: List[Request]
    ) -> None:
        if self.slo is not None:
            if self.slo.should_shed():
                self.shed += len(batch)
                self._count_shed(self.shed_by_tenant, batch)
                self._release(batch)
                self.source.on_shed(kernel, batch, at)
                return
            breached = self.slo.breached_tenants()
            if breached:
                # Per-tenant shed is surgical: only the breached
                # tenants' requests drop, the rest of the batch
                # proceeds — the batch tier degrades while the
                # interactive tier keeps its SLO.
                dropped = [r for r in batch if r.tenant in breached]
                if dropped:
                    batch = [r for r in batch if r.tenant not in breached]
                    self.shed += len(dropped)
                    self._count_shed(self.shed_by_tenant, dropped)
                    self._release(dropped)
                    self.source.on_shed(kernel, dropped, at)
                    if not batch:
                        return
        scheduler = self.server.scheduler
        available = scheduler.available()
        if not available:
            self.parked.append(batch)
            return
        # Tenant-aware policies see the batch's head tenant — batches
        # never mix tiers, and within a tier the head is the oldest
        # queued request, so attribution is deterministic.
        shard = scheduler.assign(len(batch), at, batch[0].tenant)
        if self.slo is not None and self.slo.should_reroute():
            # Reroute = override the configured policy with the
            # expected-completion ranking (the shortest-latency policy
            # itself, over the same availability-ordered shards).
            best = available[
                self._reroute_policy.select(available, len(batch), at)
            ]
            if best is not shard:
                shard = best
                self.rerouted += len(batch)
        self._execute(kernel, shard, batch, at)

    def _execute(
        self,
        kernel: EventKernel,
        shard: Shard,
        batch: List[Request],
        at: float,
    ) -> None:
        records = shard.execute(batch, at)
        start = records[0].started
        # The *shard*'s completion groups, not the runner's: a degraded
        # shard stretches its offsets by rate_factor and the BatchDone
        # instants must match the records execute() just produced.
        rounds = shard.completion_groups(len(batch))
        taken = 0
        previous = start
        for offset, images in rounds:
            completed = start + offset
            event = BatchDone(
                time=completed,
                shard=shard.name,
                records=records[taken:taken + images],
                busy_delta=completed - previous,
                batch_size=len(batch),
                first=taken == 0,
                final=taken + images == len(batch),
            )
            self.inflight[shard.name].append(
                (kernel.push(event), event)
            )
            taken += images
            previous = completed

    # -- completion path --------------------------------------------------

    def _on_batch_done(self, kernel: EventKernel, event: BatchDone) -> None:
        pending = self.inflight[event.shard]
        if pending and pending[0][1] is event:
            # Completions pop in dispatch order on a shard's timeline,
            # so the head match is the steady state.
            pending.popleft()
        else:
            # Out of order only after a rebalance rewound the tail.
            for position, (_entry, candidate) in enumerate(pending):
                if candidate is event:
                    del pending[position]
                    break
        self.records.extend(event.records)
        self._release(event.records)
        usage = self.usage[event.shard]
        usage.requests += len(event.records)
        usage.busy_seconds += event.busy_delta
        # Count the batch with its first delivered round, so a batch
        # whose tail rounds are killed still appears wherever its
        # completed requests do.
        if event.first:
            usage.batches += 1
        shard = self.server.scheduler.shard_named(event.shard)
        self.total_ops += shard.ops_per_image * len(event.records)
        self.source.on_batch_done(kernel, event)

    # -- failure path -----------------------------------------------------

    def _on_shard_down(self, kernel: EventKernel, event: ShardDown) -> None:
        """Re-queue the failed shard's un-completed requests.

        The scheduler's own handler (subscribed first) has already
        failed the shard — timeline wiped via ``Shard.reset``, routing
        disabled.  Here the lost work re-enters the batcher at the kill
        instant with its original arrival preserved.
        """
        lost: List[RequestRecord] = []
        for entry, pending in self.inflight[event.shard]:
            kernel.cancel(entry)
            lost.extend(pending.records)
        self.inflight[event.shard].clear()
        for record in sorted(lost, key=lambda r: r.index):
            kernel.push(
                Arrival(
                    time=kernel.now,
                    request=Request(
                        record.index, record.arrival, record.tenant
                    ),
                )
            )

    def _on_shard_up(self, kernel: EventKernel, event: ShardUp) -> None:
        """Re-dispatch batches that parked while the pool was down."""
        parked, self.parked = self.parked, []
        for batch in parked:
            self._dispatch(kernel, kernel.now, batch)
        if self.autoscaler is not None:
            self._rebalance(kernel)

    def _rebalance(self, kernel: EventKernel) -> None:
        """Spread queued backlogs over a just-provisioned shard.

        Batches bind to a shard's virtual timeline at dispatch, so
        without this a scale-up only serves traffic that arrives
        *after* it — the backlog that triggered it would still drain
        on the overloaded shards.  Cancelling every batch that has not
        **started** (its completions are placements, not work) and
        re-queueing its requests at the current instant lets the
        batcher re-flush them over the new availability.  Started
        batches are running — they keep their shard, exactly like the
        failure path's in-flight accounting, and each donor's
        ``busy_until`` rewinds to its last kept completion.

        Only autoscaled runs rebalance: a scenario restore keeps PR
        4's behaviour (policies rebalance survivors, queued work does
        not migrate), so open-loop and scenario runs stay
        event-for-event identical with no autoscaler configured.
        """
        lost: List[RequestRecord] = []
        for shard in self.server.pool:
            pending = self.inflight[shard.name]
            keep = []
            dropped: List[RequestRecord] = []
            for entry, queued in pending:
                if queued.records[0].started > kernel.now:
                    kernel.cancel(entry)
                    dropped.extend(queued.records)
                else:
                    keep.append((entry, queued))
            if dropped:
                self.inflight[shard.name] = deque(keep)
                shard.busy_until = max(
                    (queued.time for _entry, queued in keep),
                    default=kernel.now,
                )
                lost.extend(dropped)
        for record in sorted(lost, key=lambda r: r.index):
            kernel.push(
                Arrival(
                    time=kernel.now,
                    request=Request(
                        record.index, record.arrival, record.tenant
                    ),
                )
            )

    # -- reporting --------------------------------------------------------

    def _report(
        self, events_processed: int = 0, wall_seconds: float = 0.0
    ) -> ServingReport:
        self.records.sort(key=lambda record: record.index)
        columns = RequestColumns.from_records(self.records)
        unserved = sum(len(batch) for batch in self.parked)
        unserved_by_tenant: Dict[str, int] = {}
        for batch in self.parked:
            self._count_shed(unserved_by_tenant, batch)
        spans = {}
        scale_events = []
        shard_seconds = None
        if self.autoscaler is not None:
            # Clip the provisioned timeline to the makespan window, so
            # the bill is directly comparable to a fixed pool's
            # shards * makespan and the reported spans sum to it.
            start, end = (
                (float(columns.arrival.min()),
                 float(columns.completed.max()))
                if len(columns) else (0.0, self.kernel.now)
            )
            shard_seconds = 0.0
            for name, intervals in self.autoscaler.usage_spans(
                end
            ).items():
                clipped = tuple(
                    (max(span_start, start), min(span_stop, end))
                    for span_start, span_stop in intervals
                    if min(span_stop, end) > max(span_start, start)
                )
                spans[name] = clipped
                shard_seconds += sum(b - a for a, b in clipped)
            scale_events = list(self.autoscaler.scale_events)
        usage = [
            ShardUsage(
                name=shard.name,
                requests=self.usage[shard.name].requests,
                batches=self.usage[shard.name].batches,
                busy_seconds=self.usage[shard.name].busy_seconds,
                active_spans=spans.get(shard.name),
            )
            for shard in self.server.pool
        ]
        return ServingReport(
            records=columns,
            shards=usage,
            total_ops=self.total_ops,
            shed=self.shed,
            rerouted=self.rerouted,
            unserved=unserved,
            scale_events=scale_events,
            shard_seconds=shard_seconds,
            admission_shed=self.admission_shed,
            shed_by_tenant=self.shed_by_tenant,
            admission_shed_by_tenant=self.admission_by_tenant,
            unserved_by_tenant=unserved_by_tenant,
            tenant_slo_targets=self.tenants.slo_targets(),
            events_processed=events_processed,
            wall_seconds=wall_seconds,
        )


class ShardServer:
    """Serve finite traffic workloads over a shard pool.

    The server holds the pool plus one :class:`WorkloadSpec` — the
    template every run starts from.  :meth:`run` consumes a full spec;
    :meth:`serve` is a thin shim that fills the template's traffic /
    scenario / engine / budget fields from its kwargs, so existing
    call sites keep working unchanged.  The knob-per-argument
    constructor (``policy``/``batcher``/``slo``/``autoscale``) is
    deprecated — it builds the equivalent spec and stays
    event-identical, but new code should pass ``spec=``.
    """

    def __init__(
        self,
        pool: ShardPool,
        policy: Optional[Union[str, SchedulingPolicy]] = None,
        batcher: Optional[BatcherOptions] = None,
        slo: Optional[SloOptions] = None,
        autoscale: Optional[AutoscalerOptions] = None,
        *,
        spec: Optional[WorkloadSpec] = None,
    ):
        if (
            policy is not None or batcher is not None
            or slo is not None or autoscale is not None
        ):
            if spec is not None:
                raise ServingError(
                    "pass a WorkloadSpec OR the legacy "
                    "policy/batcher/slo/autoscale knobs, not both"
                )
            warnings.warn(
                "ShardServer(pool, policy, batcher, slo, autoscale) is "
                "deprecated; pass "
                "ShardServer(pool, spec=WorkloadSpec(...)) instead",
                DeprecationWarning,
                stacklevel=2,
            )
            spec = WorkloadSpec(
                policy=policy if policy is not None else "round-robin",
                batcher=batcher,
                slo=slo,
                autoscale=autoscale,
            )
        self.pool = pool
        self.scheduler: Optional[Scheduler] = None
        self.batcher: Optional[DynamicBatcher] = None
        self._configure(spec if spec is not None else WorkloadSpec())
        #: The controllers of the most recent run (windowed estimates,
        #: tick counters, scale decisions), for inspection/printing.
        self.last_slo_controller: Optional[SloController] = None
        self.last_autoscaler: Optional[AutoscalerController] = None
        #: Which engine the most recent :meth:`serve` ran on
        #: (``"kernel"`` or ``"fastforward"``; ``None`` before any
        #: run) — the non-silent accounting sweeps and planners record.
        self.last_engine: Optional[str] = None

    def _configure(self, spec: WorkloadSpec) -> None:
        """Adopt ``spec``: rebuild only the machinery whose options
        actually changed, so back-to-back runs with one spec keep the
        same scheduler/policy objects (their post-run state — e.g. the
        fast-forward engine's mirrored rotation — stays inspectable).
        """
        self.spec = spec
        self.tenants: TenantSet = spec.tenant_set()
        policy = spec.policy
        if isinstance(policy, SchedulingPolicy):
            if self.scheduler is None or (
                self.scheduler.policy is not policy
            ):
                self.scheduler = Scheduler(self.pool.shards, policy)
        elif self.scheduler is None or (
            self.scheduler.policy.name != policy
        ):
            self.scheduler = Scheduler(self.pool.shards, policy)
        if isinstance(self.scheduler.policy, WeightedFair):
            self.scheduler.policy.bind(self.tenants)
        options = spec.batcher or BatcherOptions()
        if self.batcher is None or self.batcher.options != options:
            self.batcher = DynamicBatcher(options)
        self.slo = spec.slo
        self.autoscale = spec.autoscale

    def run(self, spec: WorkloadSpec) -> ServingReport:
        """Serve one fully-specified workload; returns the report.

        The spec must carry traffic; every other field falls back to
        its default.  The pool's virtual timelines, the policy's
        per-run state and the source's per-run state are reset first,
        so back-to-back runs measure independent workloads.

        The spec's ``engine`` selects the replay path: ``"auto"``
        fast-forwards plain open-loop runs and falls back to the event
        kernel whenever anything can react to observed state (tenancy
        included); ``"kernel"`` forces the kernel; ``"fastforward"``
        forces the recurrence and raises on ineligible configurations
        rather than silently changing semantics.  Both engines produce
        byte-identical reports (wall-clock fields aside) —
        :attr:`last_engine` records which one ran.
        """
        if spec.traffic is None:
            raise ServingError(
                "workload spec has no traffic to serve; build one with "
                "spec.with_traffic(...)"
            )
        self._configure(spec)
        source = self._source(spec.traffic)
        if spec.engine == "kernel":
            chosen = "kernel"
        else:
            reason = ineligible_reason(self, source, spec.scenario)
            if reason is None:
                chosen = "fastforward"
            elif spec.engine == "fastforward":
                raise ServingError(
                    "engine='fastforward' requires a plain open-loop "
                    f"run: {reason}"
                )
            else:
                chosen = "kernel"
        self.last_engine = chosen
        if chosen == "fastforward":
            self.last_slo_controller = None
            self.last_autoscaler = None
            return fastforward_serve(self, source, spec.max_events)
        run = _ServeRun(self, source, spec.scenario, spec.max_events)
        self.last_slo_controller = run.slo
        self.last_autoscaler = run.autoscaler
        return run.execute()

    def serve(
        self,
        traffic: Traffic,
        scenario: Optional[Scenario] = None,
        max_events: Optional[int] = None,
        engine: str = "auto",
    ) -> ServingReport:
        """Run one workload; returns the aggregate report.

        A thin shim over :meth:`run`: the server's spec is copied with
        this call's ``traffic``/``scenario``/``max_events``/``engine``
        filled in (the copy revalidates eagerly, so e.g. a scenario
        against an autoscaled spec fails here, not mid-run).

        ``traffic`` is a request list (open loop) or exactly one
        :class:`~repro.serving.events.EventSource`; ``max_events``
        raises the kernel's runaway-loop budget for legitimately large
        workloads (an open-loop run costs roughly three events per
        request: arrival, flush, completion) and bounds the
        fast-forward path's *equivalent* event count the same way.
        """
        return self.run(
            replace(
                self.spec,
                traffic=traffic,
                scenario=scenario,
                max_events=max_events,
                engine=engine,
            )
        )

    @staticmethod
    def _source(traffic: Traffic) -> EventSource:
        if isinstance(traffic, EventSource):
            return traffic
        traffic = list(traffic)
        if not traffic:
            raise ServingError("nothing to serve: empty request stream")
        if all(isinstance(item, Request) for item in traffic):
            return OpenLoopSource(traffic)
        raise ServingError(
            "traffic must be a Request list or ONE EventSource: "
            "independent sources would mint colliding request indices"
        )


def analytical_reference(pool: ShardPool, count: int) -> float:
    """``BatchRunner``-style closed-loop makespan for ``count`` images.

    The request set is split round-robin over the shards (shard ``s``
    takes images ``s, s + S, ...``); each shard's share runs as one
    batch over its NI instances exactly as
    :meth:`~repro.runtime.batch.BatchRunner.run` accounts it; the pool
    finishes when its most-loaded shard does.  With one shard this *is*
    ``BatchRunner.run(images).makespan_seconds``.
    """
    if count < 1:
        raise ServingError(f"count must be >= 1, got {count}")
    shares = [0] * len(pool.shards)
    for index in range(count):
        shares[index % len(shares)] += 1
    makespan = 0.0
    for shard, share in zip(pool.shards, shares):
        if share:
            # shard.probe_seconds() first, so replicated shards seed
            # their runner with the pool's single probe before the
            # runner computes BatchRunner's round-robin offsets.
            shard.probe_seconds()
            makespan = max(
                makespan, shard.runner.completion_offsets(share)[-1]
            )
    return makespan
