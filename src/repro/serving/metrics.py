"""Serving metrics: per-request columns and the aggregate report.

The paper reports makespan-based throughput ("CNN Perf. (GOPS)",
Table 4); a serving system additionally cares *when each request* got
its answer.  A :class:`ServingReport` therefore carries both views:

* **aggregate** — makespan (first arrival to last completion),
  images/s and GOPS over that span, directly comparable to
  :class:`~repro.runtime.batch.BatchResult`;
* **per-request** — queueing delay and end-to-end latency percentiles
  (nearest-rank), the quantities a latency-vs-throughput policy trades.

The per-request view is stored as :class:`RequestColumns` — one numpy
array per lifecycle field — and every statistic is a column operation.
Both engines hand the report the same columns, so a million-request
replay never mints a million Python objects unless a caller iterates
``report.records``.
"""

from __future__ import annotations

import collections.abc
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.serving.tenancy import DEFAULT_TENANT


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Lifecycle timestamps of one served request (virtual seconds).

    ``arrival`` -> queued; ``dispatched`` -> its batch was flushed and
    assigned to a shard; ``started`` -> the shard began the batch
    (``> dispatched`` when the shard was still draining earlier work);
    ``completed`` -> the image's round-robin slot finished.

    ``tenant`` stays the *last* field, so a record built without one
    lands in the default tenant.
    """

    index: int
    arrival: float
    dispatched: float
    started: float
    completed: float
    shard: str
    batch_size: int
    tenant: str = DEFAULT_TENANT

    @property
    def latency(self) -> float:
        """End-to-end: arrival to completion."""
        return self.completed - self.arrival

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting before the shard started the batch."""
        return self.started - self.arrival


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    Selection runs in O(n) via :func:`numpy.partition` — the k-th
    order statistic is the same value the old full sort produced, so
    reports over million-record replays stop paying an O(n log n)
    sort per percentile.  A sample containing NaN falls back to the
    sorted-list path: NaN ordering under ``sorted`` is
    comparison-dependent, and preserving the legacy result exactly
    matters more than speed on a degenerate sample.
    """
    if len(values) == 0:
        raise ServingError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ServingError(f"percentile must be in [0, 100], got {q}")
    rank = max(1, math.ceil(q / 100 * len(values)))
    k = min(rank, len(values)) - 1
    array = np.asarray(values, dtype=np.float64)
    if np.isnan(array).any():
        return sorted(array.tolist())[k]
    return float(np.partition(array, k)[k])


def _column(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` (the caller's array keeps its
    own flags)."""
    array = np.asarray(values, dtype=dtype).view()
    array.flags.writeable = False
    return array


def _encode(labels) -> Tuple[List[int], Tuple[str, ...]]:
    """``(codes, names)`` for a label sequence, names in first-seen
    order."""
    names: Dict[str, int] = {}
    codes = [names.setdefault(label, len(names)) for label in labels]
    return codes, tuple(names)


def _decode(codes: np.ndarray, names: Tuple[str, ...]) -> List[str]:
    return np.asarray(names, dtype=object)[codes].tolist()


def _same_labels(codes: np.ndarray, names: Tuple[str, ...],
                 other_codes: np.ndarray,
                 other_names: Tuple[str, ...]) -> bool:
    """Label columns compare by name: two code columns over differently
    ordered name tuples still match when they decode alike."""
    if names == other_names:
        return bool(np.array_equal(codes, other_codes))
    lookup = {name: code for code, name in enumerate(other_names)}
    translate = np.asarray(
        [lookup.get(name, -1) for name in names], dtype=np.int64
    )
    return bool(np.array_equal(translate[codes], other_codes))


class RequestColumns(collections.abc.Sequence):
    """The per-request view of a run as columns, one entry per served
    request in request-index order.

    ``index``/``batch_size`` are int64 arrays and ``arrival``/
    ``dispatched``/``started``/``completed`` float64 arrays (see
    :class:`RequestRecord` for their meaning); ``shard`` and ``tenant``
    are integer codes into the ``shard_names``/``tenant_names`` tuples.
    The arrays are read-only.

    The object is also a read-only sequence of :class:`RequestRecord`:
    indexing or iterating it builds every record once, on first use,
    and caches the list.  Equality compares the columns exactly (labels
    by name, not by code).
    """

    __slots__ = (
        "index", "arrival", "dispatched", "started", "completed",
        "shard", "shard_names", "batch_size", "tenant", "tenant_names",
        "_records",
    )

    def __init__(self, index, arrival, dispatched, started, completed,
                 shard, shard_names: Sequence[str], batch_size, tenant,
                 tenant_names: Sequence[str]):
        self.index = _column(index, np.int64)
        self.arrival = _column(arrival, np.float64)
        self.dispatched = _column(dispatched, np.float64)
        self.started = _column(started, np.float64)
        self.completed = _column(completed, np.float64)
        self.shard = _column(shard, np.int64)
        self.shard_names = tuple(shard_names)
        self.batch_size = _column(batch_size, np.int64)
        self.tenant = _column(tenant, np.int64)
        self.tenant_names = tuple(tenant_names)
        self._records: Optional[List[RequestRecord]] = None
        count = len(self.index)
        if any(
            len(column) != count
            for column in (self.arrival, self.dispatched, self.started,
                           self.completed, self.shard, self.batch_size,
                           self.tenant)
        ):
            raise ServingError("request columns differ in length")

    @classmethod
    def from_records(
        cls, records: Sequence[RequestRecord]
    ) -> "RequestColumns":
        """Columns holding ``records`` in the order given."""
        records = list(records)
        shard, shard_names = _encode(map(attrgetter("shard"), records))
        tenant, tenant_names = _encode(map(attrgetter("tenant"), records))

        def values(name):
            return list(map(attrgetter(name), records))

        return cls(
            index=values("index"),
            arrival=values("arrival"),
            dispatched=values("dispatched"),
            started=values("started"),
            completed=values("completed"),
            shard=shard,
            shard_names=shard_names,
            batch_size=values("batch_size"),
            tenant=tenant,
            tenant_names=tenant_names,
        )

    @property
    def latency(self) -> np.ndarray:
        """End-to-end latency per request (arrival to completion)."""
        return self.completed - self.arrival

    @property
    def queue_seconds(self) -> np.ndarray:
        """Per-request wait before the shard started the batch."""
        return self.started - self.arrival

    def _materialised(self) -> List[RequestRecord]:
        if self._records is None:
            self._records = list(map(
                RequestRecord,
                self.index.tolist(),
                self.arrival.tolist(),
                self.dispatched.tolist(),
                self.started.tolist(),
                self.completed.tolist(),
                _decode(self.shard, self.shard_names),
                self.batch_size.tolist(),
                _decode(self.tenant, self.tenant_names),
            ))
        return self._records

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, item):
        return self._materialised()[item]

    def __iter__(self) -> Iterator[RequestRecord]:
        return iter(self._materialised())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)):
            return self._materialised() == list(other)
        if not isinstance(other, RequestColumns):
            return NotImplemented
        return (
            all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("index", "arrival", "dispatched", "started",
                             "completed", "batch_size")
            )
            and _same_labels(self.shard, self.shard_names,
                             other.shard, other.shard_names)
            and _same_labels(self.tenant, self.tenant_names,
                             other.tenant, other.tenant_names)
        )

    def __repr__(self) -> str:
        return f"RequestColumns({len(self)} requests)"


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision: a shard scaled up or down.

    ``time`` is the *decision* instant (a scaled-up shard only accepts
    work after its warm-up elapses); ``shards_after`` counts the
    shards the pool is provisioned for — active plus warming — once
    the decision applies; ``observed`` is the windowed metric value
    (``metric`` names which: ``utilisation`` or ``p99``) that
    triggered it.
    """

    time: float
    action: str
    shard: str
    shards_after: int
    observed: float
    metric: str

    def __post_init__(self) -> None:
        if self.action not in ("up", "down"):
            raise ServingError(
                f"scale event action must be up|down, got {self.action!r}"
            )


@dataclass(frozen=True)
class TenantBreakdown:
    """One tenant's slice of a run (see :meth:`ServingReport.per_tenant`).

    ``shed`` counts every dropped request of the tenant — SLO sheds
    *plus* admission rejections; ``admission_shed`` is the admission
    subset, so ``shed - admission_shed`` is what the SLO controller
    dropped.  ``issued = count + shed + unserved`` and
    :meth:`slo_attainment` uses it as the denominator, exactly like the
    global figure.
    """

    tenant: str
    count: int
    shed: int
    admission_shed: int
    unserved: int
    mean_latency_s: float
    p50_latency_s: float
    p99_latency_s: float
    slo_target_s: Optional[float] = None
    #: Fraction of the tenant's issued requests served within its own
    #: SLO target — ``None`` when the tenant declares no target.
    slo_attainment: Optional[float] = None

    @property
    def issued(self) -> int:
        return self.count + self.shed + self.unserved

    def to_dict(self) -> Dict:
        def safe(value: Optional[float]) -> Optional[float]:
            if value is None:
                return None
            return None if value != value else value

        return {
            "count": self.count,
            "shed": self.shed,
            "admission_shed": self.admission_shed,
            "unserved": self.unserved,
            "issued": self.issued,
            "mean_latency_s": safe(self.mean_latency_s),
            "p50_latency_s": safe(self.p50_latency_s),
            "p99_latency_s": safe(self.p99_latency_s),
            "slo_target_s": safe(self.slo_target_s),
            "slo_attainment": safe(self.slo_attainment),
        }


@dataclass(frozen=True)
class ShardUsage:
    """One shard's share of the run.

    ``active_spans`` is the shard's provisioned timeline under an
    autoscaler — ``(from, to)`` virtual-time intervals the shard was
    scaled in (including warm-up).  ``None`` (the fixed-pool default)
    means the shard was active for the whole run; an *empty* tuple
    means a standby shard the autoscaler never provisioned.
    """

    name: str
    requests: int
    batches: int
    busy_seconds: float
    active_spans: Optional[Tuple[Tuple[float, float], ...]] = None

    def utilisation(self, makespan: float) -> float:
        return self.busy_seconds / makespan if makespan > 0 else 0.0

    def active_seconds(self, makespan: float) -> float:
        """Provisioned time: span lengths, or ``makespan`` when the
        shard was never autoscaled (fixed-pool shards)."""
        if self.active_spans is None:
            return makespan
        return sum(end - start for start, end in self.active_spans)


@dataclass(frozen=True)
class ServingReport:
    """Everything one :meth:`ShardServer.serve` run measured.

    ``shed`` counts requests the SLO controller dropped, ``rerouted``
    counts requests it steered away from the policy's pick (both zero
    without a controller), and ``unserved`` counts requests still
    parked when the run drained — a scenario that killed the whole
    pool and never restored it.  A report may legitimately hold *zero*
    records (every request shed or stranded, or a zero-length stream):
    counts and spans are then 0 and the undefined latency statistics
    are NaN — no accessor raises.

    ``scale_events`` is the autoscaler's decision log (empty without
    one) and ``shard_seconds`` the provisioned shard-time it was
    billed — ``None`` means a fixed pool, where it degenerates to
    ``len(shards) * makespan`` (see :meth:`total_shard_seconds`).

    ``events_processed``/``wall_seconds`` measure the *kernel*, not the
    modeled system: how many events the run dispatched and how much
    host wall-clock it took (:attr:`events_per_second` is the ratio —
    the serving layer's perf trajectory metric).  They describe the
    machine the simulation ran on, so they are excluded from equality
    (two runs of the same scenario compare equal even though their
    wall clocks differ).

    ``records`` accepts any sequence of :class:`RequestRecord` and is
    stored as :class:`RequestColumns`, which the statistics below read
    column-wise; it still reads back as a sequence of records.
    """

    records: Sequence[RequestRecord]
    shards: List[ShardUsage]
    total_ops: int
    shed: int = 0
    rerouted: int = 0
    unserved: int = 0
    scale_events: List[ScaleEvent] = field(default_factory=list)
    shard_seconds: Optional[float] = None
    #: Admission-control rejections — a *subset* of ``shed`` (``shed``
    #: stays the total drop count, so the served+shed+unserved
    #: accounting identity is unchanged by tenancy).
    admission_shed: int = 0
    #: Per-tenant drop/strand counts, populated only with nonzero
    #: entries — single-tenant runs keep the empty dicts and stay
    #: byte-identical to pre-tenancy reports.
    shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    admission_shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    unserved_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: ``tenant -> p99 target`` for tenants that declared an SLO.
    tenant_slo_targets: Dict[str, float] = field(default_factory=dict)
    events_processed: int = field(default=0, compare=False)
    wall_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.records, RequestColumns):
            object.__setattr__(
                self, "records", RequestColumns.from_records(self.records)
            )
        if self.shed < 0 or self.rerouted < 0 or self.unserved < 0:
            raise ServingError(
                "negative shed/reroute/unserved counts: "
                f"{self.shed}/{self.rerouted}/{self.unserved}"
            )
        if not 0 <= self.admission_shed <= self.shed:
            raise ServingError(
                f"admission_shed ({self.admission_shed}) must be a "
                f"subset of shed ({self.shed})"
            )

    # -- aggregate view ---------------------------------------------------

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def makespan_seconds(self) -> float:
        """First arrival to last completion — the Table-4 span
        (0.0 when nothing completed)."""
        if not self.count:
            return 0.0
        start = float(self.records.arrival.min())
        end = float(self.records.completed.max())
        return end - start

    @property
    def throughput_gops(self) -> float:
        if self.makespan_seconds <= 0.0:
            return float("nan")
        return self.total_ops / self.makespan_seconds / 1e9

    @property
    def images_per_second(self) -> float:
        if self.makespan_seconds <= 0.0:
            return float("nan")  # undefined rate, like throughput_gops
        return self.count / self.makespan_seconds

    @property
    def mean_batch_size(self) -> float:
        batches = sum(usage.batches for usage in self.shards)
        return self.count / batches if batches else 0.0

    # -- per-request view -------------------------------------------------

    # Means sum ``column.tolist()`` with the builtin ``sum``: numpy's
    # pairwise summation rounds differently in the last place, and the
    # builtin keeps every mean bit-identical to a left-to-right walk
    # over the records on every Python version.

    def latencies(self) -> List[float]:
        return self.records.latency.tolist()

    def latency_percentile(self, q: float) -> float:
        if not self.count:
            return float("nan")
        return percentile(self.records.latency, q)

    @property
    def mean_latency(self) -> float:
        if not self.count:
            return float("nan")
        return sum(self.latencies()) / self.count

    @property
    def mean_queue_seconds(self) -> float:
        if not self.count:
            return float("nan")
        return sum(self.records.queue_seconds.tolist()) / self.count

    def served_within(self, target_s: float) -> int:
        """How many served requests finished within ``target_s`` of
        their arrival."""
        return int(np.count_nonzero(self.records.latency <= target_s))

    def per_shard(self) -> Dict[str, ShardUsage]:
        return {usage.name: usage for usage in self.shards}

    def tenants(self) -> List[str]:
        """Every tenant the run touched (served, shed or stranded), in
        deterministic sorted order with the default tenant first."""
        names = set(self._latencies_by_tenant())
        names.update(self.shed_by_tenant)
        names.update(self.unserved_by_tenant)
        names.update(self.tenant_slo_targets)
        if not names:
            return []
        return sorted(
            names, key=lambda name: (name != DEFAULT_TENANT, name)
        )

    def per_tenant(self) -> Dict[str, TenantBreakdown]:
        """Per-tenant breakdowns: counts, latency percentiles and each
        tenant's own SLO attainment.  Sums are exhaustive — every
        tenant's ``count``/``shed``/``unserved`` adds up to the global
        accounting."""
        grouped = self._latencies_by_tenant()
        empty = np.empty(0, dtype=np.float64)
        breakdowns = {}
        for name in self.tenants():
            latencies = grouped.get(name, empty)
            served = len(latencies)
            target = self.tenant_slo_targets.get(name)
            shed = self.shed_by_tenant.get(name, 0)
            unserved = self.unserved_by_tenant.get(name, 0)
            attainment = None
            if target is not None:
                issued = served + shed + unserved
                attainment = (
                    int(np.count_nonzero(latencies <= target)) / issued
                    if issued else 0.0
                )
            breakdowns[name] = TenantBreakdown(
                tenant=name,
                count=served,
                shed=shed,
                admission_shed=self.admission_shed_by_tenant.get(name, 0),
                unserved=unserved,
                mean_latency_s=(
                    sum(latencies.tolist()) / served
                    if served else float("nan")
                ),
                p50_latency_s=(
                    percentile(latencies, 50) if served else float("nan")
                ),
                p99_latency_s=(
                    percentile(latencies, 99) if served else float("nan")
                ),
                slo_target_s=target,
                slo_attainment=attainment,
            )
        return breakdowns

    def _latencies_by_tenant(self) -> Dict[str, np.ndarray]:
        """``tenant -> latency column`` over the served tenants, each in
        request-index order."""
        columns = self.records
        served = np.flatnonzero(np.bincount(
            columns.tenant, minlength=len(columns.tenant_names)
        ))
        latency = columns.latency
        return {
            columns.tenant_names[code]: latency[columns.tenant == code]
            for code in served
        }

    def slo_attainment(self, target_s: float) -> float:
        """The fraction of *issued* requests served within ``target_s``.

        The denominator counts served + shed + unserved — a controller
        that sheds its way to a fast tail must not look like it met the
        SLO for the requests it dropped.  0.0 when nothing was issued.
        """
        if target_s <= 0 or target_s != target_s:
            raise ServingError(
                f"SLO target must be positive, got {target_s}"
            )
        issued = self.count + self.shed + self.unserved
        if issued == 0:
            return 0.0
        return self.served_within(target_s) / issued

    def survival(self, target_s: float,
                 multiples: Sequence[float] = (1.0, 2.0, 4.0, 8.0)
                 ) -> Dict[str, float]:
        """Survival curve over issued requests: for each multiple ``m``
        of ``target_s``, the fraction still waiting past ``m * target``
        (shed and unserved requests never completed, so they exceed
        every multiple)."""
        return {
            f"{multiple:g}x": 1.0 - self.slo_attainment(
                multiple * target_s
            )
            for multiple in multiples
        }

    # -- elasticity view --------------------------------------------------

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.scale_events if e.action == "down")

    @property
    def events_per_second(self) -> float:
        """Kernel dispatch rate (host events/s); NaN when unmeasured.

        The fast-forward engine reports its *equivalent* event count
        (what the kernel would have dispatched for the same run), so
        this stays one trajectory metric across both engines."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.events_processed / self.wall_seconds

    @property
    def replay_requests_per_second(self) -> float:
        """Served requests per host wall second — the replay-engine
        throughput figure the perf trajectory tracks next to
        :attr:`events_per_second`; NaN when unmeasured."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.count / self.wall_seconds

    def total_shard_seconds(self) -> float:
        """Provisioned shard-time of the run: the autoscaler's bill, or
        ``shards * makespan`` for a fixed pool.  This is the cost axis
        the elasticity studies trade against the p99 target."""
        if self.shard_seconds is not None:
            return self.shard_seconds
        return len(self.shards) * self.makespan_seconds

    # -- export -----------------------------------------------------------

    def to_dict(self) -> Dict:
        """A JSON-safe summary (NaN statistics become ``None``) — the
        payload ``repro serve --report-json`` writes and CI uploads as
        a workflow artifact.

        ``schema`` versions the layout: schema 1 (pre-tenancy) was the
        same flat dictionary without ``schema``, ``admission_shed`` and
        ``tenants``; schema 2 adds them and changes nothing else, so
        schema-1 consumers keep working on the flat fields.
        """

        def safe(value: float) -> Optional[float]:
            return None if value != value else value

        return {
            "schema": 2,
            "count": self.count,
            "admission_shed": self.admission_shed,
            "tenants": {
                name: breakdown.to_dict()
                for name, breakdown in self.per_tenant().items()
            },
            "shed": self.shed,
            "rerouted": self.rerouted,
            "unserved": self.unserved,
            "total_ops": self.total_ops,
            "makespan_seconds": self.makespan_seconds,
            "images_per_second": safe(self.images_per_second),
            "throughput_gops": safe(self.throughput_gops),
            "mean_batch_size": self.mean_batch_size,
            "mean_latency_s": safe(self.mean_latency),
            "p50_latency_s": safe(self.latency_percentile(50)),
            "p90_latency_s": safe(self.latency_percentile(90)),
            "p99_latency_s": safe(self.latency_percentile(99)),
            "mean_queue_s": safe(self.mean_queue_seconds),
            "shard_seconds": self.total_shard_seconds(),
            "events_processed": self.events_processed,
            "wall_seconds": self.wall_seconds,
            "events_per_second": safe(self.events_per_second),
            "replay_requests_per_second": safe(
                self.replay_requests_per_second
            ),
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "scale_events": [
                {
                    "time": event.time,
                    "action": event.action,
                    "shard": event.shard,
                    "shards_after": event.shards_after,
                    "observed": safe(event.observed),
                    "metric": event.metric,
                }
                for event in self.scale_events
            ],
            "shards": [
                {
                    "name": usage.name,
                    "requests": usage.requests,
                    "batches": usage.batches,
                    "busy_seconds": usage.busy_seconds,
                    "active_spans": (
                        None if usage.active_spans is None
                        else [list(span) for span in usage.active_spans]
                    ),
                }
                for usage in self.shards
            ],
        }

    # -- rendering --------------------------------------------------------

    def describe(self) -> str:
        if not self.count:
            reasons = []
            if self.shed:
                slo_shed = self.shed - self.admission_shed
                if slo_shed:
                    reasons.append(
                        f"{slo_shed} shed by the SLO controller"
                    )
                if self.admission_shed:
                    reasons.append(
                        f"{self.admission_shed} rejected at admission"
                    )
            if self.rerouted:
                reasons.append(f"{self.rerouted} rerouted")
            if self.unserved:
                reasons.append(
                    f"{self.unserved} stranded by a shard outage"
                )
            text = (
                f"served 0 requests over {len(self.shards)} shard(s): "
                "nothing completed"
                + (f" ({', '.join(reasons)})" if reasons else "")
            )
            if self.shed and not self.unserved:
                # Without this note an --slo-p99 target over a stream
                # that was dropped wholesale is a silent no-op: nothing
                # completed, so no latency sample ever met the target.
                text += (
                    "\n  all requests shed: no request completed, so "
                    "the p99 SLO was never evaluated"
                )
            return text
        latency = self.records.latency
        lines = [
            f"served {self.count} requests over "
            f"{len(self.shards)} shard(s) in "
            f"{self.makespan_seconds * 1e3:.2f} ms "
            f"(mean batch {self.mean_batch_size:.1f})",
            f"  throughput: {self.images_per_second:.1f} img/s, "
            f"{self.throughput_gops:.1f} GOPS aggregate",
            f"  latency ms: mean {self.mean_latency * 1e3:.2f}, "
            f"p50 {percentile(latency, 50) * 1e3:.2f}, "
            f"p90 {percentile(latency, 90) * 1e3:.2f}, "
            f"p99 {percentile(latency, 99) * 1e3:.2f}, "
            f"max {float(latency.max()) * 1e3:.2f} "
            f"(queue {self.mean_queue_seconds * 1e3:.2f} mean)",
        ]
        if self.wall_seconds > 0.0:
            lines.append(
                f"  kernel: {self.events_processed} events in "
                f"{self.wall_seconds:.3f} s host time "
                f"({self.events_per_second / 1e6:.2f} M events/s)"
            )
        # Surface the exceptional counters only when nonzero: a healthy
        # run's report should not advertise the machinery that never
        # fired.
        slo_counts = []
        if self.shed:
            shed_text = f"{self.shed} request(s) shed"
            if self.admission_shed:
                shed_text += f" ({self.admission_shed} at admission)"
            slo_counts.append(shed_text)
        if self.rerouted:
            slo_counts.append(f"{self.rerouted} request(s) rerouted")
        if slo_counts:
            lines.append("  slo: " + ", ".join(slo_counts))
        if self.unserved:
            lines.append(
                f"  {self.unserved} request(s) left unserved by a "
                "shard outage"
            )
        breakdowns = self.per_tenant()
        if len(breakdowns) > 1 or self.tenant_slo_targets:
            for name, tenant in breakdowns.items():
                p99 = tenant.p99_latency_s
                line = (
                    f"  tenant {name:12s} {tenant.count:5d} served, "
                    f"{tenant.shed:4d} shed, {tenant.unserved:4d} "
                    "unserved"
                )
                if p99 == p99:
                    line += f", p99 {p99 * 1e3:.2f} ms"
                if tenant.slo_target_s is not None:
                    verdict = (
                        "met" if p99 == p99
                        and p99 <= tenant.slo_target_s else "MISSED"
                    )
                    line += (
                        f" (target {tenant.slo_target_s * 1e3:.2f} ms "
                        f"{verdict}, attainment "
                        f"{(tenant.slo_attainment or 0.0) * 100:.1f}%)"
                    )
                lines.append(line)
        if self.scale_events:
            fixed = len(self.shards) * self.makespan_seconds
            lines.append(
                f"  autoscaler: {self.scale_ups} scale-up(s), "
                f"{self.scale_downs} scale-down(s); "
                f"{self.total_shard_seconds() * 1e3:.2f} shard-ms vs "
                f"{fixed * 1e3:.2f} for the full pool"
            )
        makespan = self.makespan_seconds
        for usage in self.shards:
            line = (
                f"  {usage.name:12s} {usage.requests:5d} requests in "
                f"{usage.batches:4d} batch(es), "
                f"{usage.utilisation(makespan) * 100:5.1f}% busy"
            )
            if usage.active_spans is not None:
                share = (
                    usage.active_seconds(makespan) / makespan
                    if makespan > 0 else 0.0
                )
                line += f", active {share * 100:5.1f}% of the run"
            lines.append(line)
        return "\n".join(lines)
