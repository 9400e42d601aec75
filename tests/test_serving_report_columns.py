"""Oracle tests for the column-backed :class:`ServingReport`.

The report computes every statistic over :class:`RequestColumns`.  The
reference below is the object-walking report it replaced: the same
formulas over a plain list of :class:`RequestRecord`, kept here
verbatim except that its float sums are the 3.11 builtin's left walk
spelled out (:func:`builtin_sum_311`; 3.12's builtin compensates).
Hypothesis generates record sets (empty, single, tied, multi-tenant,
shed/unserved-only) and every statistic, ``describe()`` and
``to_dict()`` must come out bit-equal — floats are compared by
``repr``, which is exact.

:class:`TestColumnStatistics` checks the column math at replay sizes
against the formulas it replaced: means as ``sum(column.tolist())``
(the 3.11 builtin) and one ``np.partition`` per percentile.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServingError
from repro.serving import (
    RequestColumns,
    RequestRecord,
    ScaleEvent,
    ServingReport,
    ShardUsage,
    TenantBreakdown,
)
from repro.serving.metrics import percentile, percentiles
from repro.serving.tenancy import DEFAULT_TENANT
from test_numeric import builtin_sum_311, hexes

SHARDS = ("s0", "s1", "s2")
TENANTS = (DEFAULT_TENANT, "interactive", "bulk")


def legacy_percentile(values, q):
    rank = max(1, math.ceil(q / 100 * len(values)))
    return sorted(values)[min(rank, len(values)) - 1]


class LegacyReport:
    """The object-walking report: per-request statistics over a record
    list.  Counter fields come from the report under test, which never
    derives them from requests."""

    def __init__(self, report: ServingReport, records):
        self._report = report
        self.records = list(records)

    def __getattr__(self, name):
        return getattr(self._report, name)

    @property
    def count(self):
        return len(self.records)

    @property
    def makespan_seconds(self):
        if not self.records:
            return 0.0
        start = min(r.arrival for r in self.records)
        end = max(r.completed for r in self.records)
        return end - start

    @property
    def throughput_gops(self):
        if self.makespan_seconds <= 0.0:
            return float("nan")
        return self.total_ops / self.makespan_seconds / 1e9

    @property
    def images_per_second(self):
        if self.makespan_seconds <= 0.0:
            return float("nan")
        return self.count / self.makespan_seconds

    @property
    def mean_batch_size(self):
        batches = sum(usage.batches for usage in self.shards)
        return self.count / batches if batches else 0.0

    def latencies(self):
        return [r.latency for r in self.records]

    def latency_percentile(self, q):
        if not self.records:
            return float("nan")
        return legacy_percentile(self.latencies(), q)

    @property
    def mean_latency(self):
        if not self.records:
            return float("nan")
        return builtin_sum_311(self.latencies()) / self.count

    @property
    def mean_queue_seconds(self):
        if not self.records:
            return float("nan")
        return builtin_sum_311(
            r.queue_seconds for r in self.records
        ) / self.count

    def tenants(self):
        names = {record.tenant for record in self.records}
        names.update(self.shed_by_tenant)
        names.update(self.unserved_by_tenant)
        names.update(self.tenant_slo_targets)
        if not names:
            return []
        return sorted(
            names, key=lambda name: (name != DEFAULT_TENANT, name)
        )

    def per_tenant(self):
        grouped = {}
        for record in self.records:
            grouped.setdefault(record.tenant, []).append(record.latency)
        breakdowns = {}
        for name in self.tenants():
            latencies = grouped.get(name, [])
            target = self.tenant_slo_targets.get(name)
            shed = self.shed_by_tenant.get(name, 0)
            unserved = self.unserved_by_tenant.get(name, 0)
            attainment = None
            if target is not None:
                issued = len(latencies) + shed + unserved
                attainment = (
                    sum(1 for value in latencies if value <= target)
                    / issued if issued else 0.0
                )
            breakdowns[name] = TenantBreakdown(
                tenant=name,
                count=len(latencies),
                shed=shed,
                admission_shed=self.admission_shed_by_tenant.get(name, 0),
                unserved=unserved,
                mean_latency_s=(
                    builtin_sum_311(latencies) / len(latencies)
                    if latencies else float("nan")
                ),
                p50_latency_s=(
                    legacy_percentile(latencies, 50)
                    if latencies else float("nan")
                ),
                p99_latency_s=(
                    legacy_percentile(latencies, 99)
                    if latencies else float("nan")
                ),
                slo_target_s=target,
                slo_attainment=attainment,
            )
        return breakdowns

    def slo_attainment(self, target_s):
        issued = self.count + self.shed + self.unserved
        if issued == 0:
            return 0.0
        within = sum(1 for r in self.records if r.latency <= target_s)
        return within / issued

    def survival(self, target_s, multiples=(1.0, 2.0, 4.0, 8.0)):
        return {
            f"{multiple:g}x": 1.0 - self.slo_attainment(
                multiple * target_s
            )
            for multiple in multiples
        }

    @property
    def replay_requests_per_second(self):
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.count / self.wall_seconds

    def total_shard_seconds(self):
        if self.shard_seconds is not None:
            return self.shard_seconds
        return len(self.shards) * self.makespan_seconds

    def to_dict(self):
        def safe(value):
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

    def describe(self):
        if not self.records:
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
                text += (
                    "\n  all requests shed: no request completed, so "
                    "the p99 SLO was never evaluated"
                )
            return text
        latencies = self.latencies()
        lines = [
            f"served {self.count} requests over "
            f"{len(self.shards)} shard(s) in "
            f"{self.makespan_seconds * 1e3:.2f} ms "
            f"(mean batch {self.mean_batch_size:.1f})",
            f"  throughput: {self.images_per_second:.1f} img/s, "
            f"{self.throughput_gops:.1f} GOPS aggregate",
            f"  latency ms: mean {self.mean_latency * 1e3:.2f}, "
            f"p50 {legacy_percentile(latencies, 50) * 1e3:.2f}, "
            f"p90 {legacy_percentile(latencies, 90) * 1e3:.2f}, "
            f"p99 {legacy_percentile(latencies, 99) * 1e3:.2f}, "
            f"max {max(latencies) * 1e3:.2f} "
            f"(queue {self.mean_queue_seconds * 1e3:.2f} mean)",
        ]
        if self.wall_seconds > 0.0:
            lines.append(
                f"  kernel: {self.events_processed} events in "
                f"{self.wall_seconds:.3f} s host time "
                f"({self.events_per_second / 1e6:.2f} M events/s)"
            )
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


# -- strategies ---------------------------------------------------------------

#: Few distinct instants, so arrivals and latencies tie often.
instants = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=10.0),
)
delays = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.25]),
    st.floats(min_value=0.0, max_value=2.0),
)


@st.composite
def record_lists(draw, max_size=24):
    indices = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=10_000), unique=True,
        max_size=max_size,
    )))
    records = []
    for index in indices:
        arrival = draw(instants)
        dispatched = arrival + draw(delays)
        started = dispatched + draw(delays)
        records.append(RequestRecord(
            index=index,
            arrival=arrival,
            dispatched=dispatched,
            started=started,
            completed=started + draw(delays),
            shard=draw(st.sampled_from(SHARDS)),
            batch_size=draw(st.integers(min_value=1, max_value=8)),
            tenant=draw(st.sampled_from(TENANTS)),
        ))
    return records


@st.composite
def reports(draw):
    """``(report, records)`` with every per-tenant and elasticity field
    populated somewhere in the search space."""
    records = draw(record_lists())
    counts = st.dictionaries(
        st.sampled_from(TENANTS), st.integers(min_value=1, max_value=5),
        max_size=2,
    )
    shed_by_tenant = draw(counts)
    admission_by_tenant = {
        name: draw(st.integers(min_value=0, max_value=count))
        for name, count in shed_by_tenant.items()
    }
    admission_by_tenant = {
        name: count for name, count in admission_by_tenant.items() if count
    }
    unserved_by_tenant = draw(counts)
    targets = draw(st.dictionaries(
        st.sampled_from(TENANTS),
        st.floats(min_value=1e-3, max_value=3.0), max_size=2,
    ))
    shards = [
        ShardUsage(
            name=name,
            requests=draw(st.integers(min_value=0, max_value=30)),
            batches=draw(st.integers(min_value=0, max_value=10)),
            busy_seconds=draw(st.floats(min_value=0.0, max_value=5.0)),
            active_spans=draw(st.one_of(
                st.none(),
                st.just(((0.0, 0.5), (1.0, 2.0))),
            )),
        )
        for name in SHARDS[:draw(st.integers(min_value=0, max_value=3))]
    ]
    scale_events = draw(st.sampled_from([
        [],
        [ScaleEvent(0.25, "up", "s1", 2, 0.9, "utilisation"),
         ScaleEvent(1.5, "down", "s1", 1, float("nan"), "p99")],
    ]))
    report = ServingReport(
        records,
        shards,
        total_ops=draw(st.integers(min_value=0, max_value=10**9)),
        shed=sum(shed_by_tenant.values()),
        rerouted=draw(st.integers(min_value=0, max_value=3)),
        unserved=sum(unserved_by_tenant.values()),
        scale_events=scale_events,
        shard_seconds=(
            draw(st.floats(min_value=0.0, max_value=9.0))
            if scale_events else None
        ),
        admission_shed=sum(admission_by_tenant.values()),
        shed_by_tenant=shed_by_tenant,
        admission_shed_by_tenant=admission_by_tenant,
        unserved_by_tenant=unserved_by_tenant,
        tenant_slo_targets=targets,
        events_processed=draw(st.integers(min_value=0, max_value=10**6)),
        wall_seconds=draw(st.sampled_from([0.0, 0.125, 2.5])),
    )
    return report, records


def same(actual, expected):
    """Bit equality: ``repr`` is exact for floats (NaN included) and
    recurses through dicts, lists and dataclasses."""
    assert repr(actual) == repr(expected)


# -- oracle -------------------------------------------------------------------


class TestStatisticsMatchTheRecordWalk:
    @settings(max_examples=300, deadline=None)
    @given(reports())
    def test_every_statistic_is_bit_equal(self, drawn):
        report, records = drawn
        legacy = LegacyReport(report, records)
        same(report.count, legacy.count)
        same(report.makespan_seconds, legacy.makespan_seconds)
        same(report.mean_latency, legacy.mean_latency)
        same(report.mean_queue_seconds, legacy.mean_queue_seconds)
        same(report.latencies(), legacy.latencies())
        for q in (0, 50, 90, 99, 100):
            same(report.latency_percentile(q), legacy.latency_percentile(q))
        same(report.tenants(), legacy.tenants())
        same(report.per_tenant(), legacy.per_tenant())
        for target in (1e-3, 0.25, 1.0, 4.0):
            same(report.slo_attainment(target), legacy.slo_attainment(target))
            same(report.survival(target), legacy.survival(target))
            same(
                report.served_within(target),
                sum(1 for r in records if r.latency <= target),
            )
        same(report.describe(), legacy.describe())
        same(report.to_dict(), legacy.to_dict())

    def test_empty_report(self):
        report = ServingReport([], [], total_ops=0)
        legacy = LegacyReport(report, [])
        same(report.to_dict(), legacy.to_dict())
        same(report.describe(), legacy.describe())
        assert report.served_within(1.0) == 0

    def test_shed_and_unserved_only(self):
        report = ServingReport(
            [], [ShardUsage("s0", 0, 0, 0.0)], total_ops=0,
            shed=4, admission_shed=1, unserved=2,
            shed_by_tenant={"bulk": 4}, admission_shed_by_tenant={"bulk": 1},
            unserved_by_tenant={DEFAULT_TENANT: 2},
            tenant_slo_targets={"bulk": 0.5},
        )
        legacy = LegacyReport(report, [])
        same(report.to_dict(), legacy.to_dict())
        same(report.describe(), legacy.describe())
        assert report.slo_attainment(0.5) == 0.0

    def test_single_record(self):
        record = RequestRecord(3, 0.5, 0.5, 0.75, 1.0, "s0", 1)
        report = ServingReport([record], [ShardUsage("s0", 1, 1, 0.25)],
                               total_ops=10)
        legacy = LegacyReport(report, [record])
        same(report.to_dict(), legacy.to_dict())
        same(report.describe(), legacy.describe())

    def test_means_sum_left_to_right(self):
        # A sample where numpy's pairwise sum and a left-to-right walk
        # round differently: the report must follow the walk.
        latencies = [1e16, 1.0, -1e16, 1.0] * 40
        records = [
            RequestRecord(i, 0.0, 0.0, 0.0, value, "s0", 1)
            for i, value in enumerate(latencies)
        ]
        report = ServingReport(records, [], total_ops=0)
        walk = builtin_sum_311(latencies) / len(latencies)
        assert report.mean_latency == walk
        assert report.per_tenant()[DEFAULT_TENANT].mean_latency_s == walk


# -- the records view ---------------------------------------------------------


class TestRecordsView:
    @settings(max_examples=100, deadline=None)
    @given(record_lists())
    def test_round_trip(self, records):
        report = ServingReport(records, [], total_ops=0)
        assert isinstance(report.records, RequestColumns)
        assert list(report.records) == records
        assert len(report.records) == len(records)
        assert report.records == records
        for position, record in enumerate(records):
            assert report.records[position] == record
        rebuilt = ServingReport(list(report.records), [], total_ops=0)
        assert rebuilt == report
        assert rebuilt.records == report.records

    def test_positional_construction(self):
        record = RequestRecord(
            index=0, arrival=0.0, dispatched=0.0, started=0.0,
            completed=1.0, shard="s0", batch_size=1,
        )
        usage = [ShardUsage("s0", 1, 1, 0.5)]
        report = ServingReport([record], usage, total_ops=10)
        assert report.count == 1
        assert report.records[0] is report.records[0]  # cached
        assert report.records[0] == record
        assert report.records[:1] == [record]
        assert report.records[0].tenant == DEFAULT_TENANT
        assert report == ServingReport([record], usage, total_ops=10)

    def test_columns_are_read_only(self):
        report = ServingReport(
            [RequestRecord(0, 0.0, 0.0, 0.0, 1.0, "s0", 1)], [],
            total_ops=0,
        )
        with pytest.raises(ValueError):
            report.records.completed[0] = 2.0
        assert not hasattr(report.records, "append")

    def test_caller_arrays_keep_their_flags(self):
        arrival = np.zeros(2)
        RequestColumns(
            index=[0, 1], arrival=arrival, dispatched=arrival,
            started=arrival, completed=arrival, shard=[0, 0],
            shard_names=["s0"], batch_size=[2, 2], tenant=[0, 0],
            tenant_names=[DEFAULT_TENANT],
        )
        assert arrival.flags.writeable

    def test_equality_decodes_labels_by_name(self):
        times = [0.0, 1.0]

        def columns(shard, shard_names):
            return RequestColumns(
                index=[0, 1], arrival=times, dispatched=times,
                started=times, completed=times, shard=shard,
                shard_names=shard_names, batch_size=[1, 1],
                tenant=[0, 0], tenant_names=[DEFAULT_TENANT],
            )

        forward = columns([0, 1], ["s0", "s1"])
        assert forward == columns([1, 0], ["s1", "s0"])
        assert forward == columns([0, 1], ["s0", "s1", "unused"])
        assert forward != columns([1, 0], ["s0", "s1"])
        assert forward != columns([0, 1], ["s0", "s2"])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ServingError):
            RequestColumns(
                index=[0, 1], arrival=[0.0], dispatched=[0.0],
                started=[0.0], completed=[0.0], shard=[0],
                shard_names=["s0"], batch_size=[1], tenant=[0],
                tenant_names=[DEFAULT_TENANT],
            )


# -- column statistics at replay sizes ----------------------------------------


def old_mean(column):
    """The replaced mean: ``sum(column.tolist()) / len(column)``."""
    return builtin_sum_311(column.tolist()) / len(column)


def old_percentile(values, q):
    """The replaced per-q selection, one ``np.partition`` per call."""
    rank = max(1, math.ceil(q / 100 * len(values)))
    k = min(rank, len(values)) - 1
    array = np.asarray(values, dtype=np.float64)
    if np.isnan(array).any():
        return sorted(array.tolist())[k]
    return float(np.partition(array, k)[k])


def signless(value):
    """``old_percentile`` returns whichever signed zero its partition
    lands on; the report reads a zero percentile as ``+0.0``."""
    return value + 0.0


@st.composite
def replay_reports(draw):
    """Reports over random :class:`RequestColumns` of 1-5,000 requests:
    spread, tied, constant or signed-zero timestamps, 1-3 served
    tenants and a ``ghost`` tenant that was only shed."""
    count = draw(st.integers(min_value=1, max_value=5000))
    tenants = draw(st.integers(min_value=1, max_value=3))
    shape = draw(st.sampled_from(("spread", "ties", "constant", "zeros")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "spread":
        arrival = np.sort(rng.random(count)) * 10.0 ** rng.integers(-3, 4)
        started = arrival + rng.exponential(1e-3, count) * 10.0 ** (
            rng.integers(-6, 3, count)
        )
        completed = started + rng.exponential(1e-3, count)
    elif shape == "ties":
        instants = rng.random(3)
        arrival = rng.choice(instants, count)
        started = arrival + rng.choice([0.0, 1e-3, 0.1], count)
        completed = started + rng.choice([1e-3, 0.25], count)
    elif shape == "constant":
        arrival = np.full(count, rng.random())
        started = arrival + rng.random()
        completed = started + rng.random()
    else:
        zeros = np.array([0.0, -0.0])
        arrival = rng.choice(zeros, count)
        started = rng.choice(np.array([0.0, -0.0, 1e-3]), count)
        completed = rng.choice(np.array([0.0, -0.0, 2e-3]), count)
    columns = RequestColumns(
        index=np.arange(count), arrival=arrival, dispatched=arrival,
        started=started, completed=completed,
        shard=np.zeros(count, dtype=np.int64), shard_names=["s0"],
        batch_size=np.ones(count, dtype=np.int64),
        tenant=rng.integers(0, tenants, count),
        tenant_names=TENANTS[:tenants],
    )
    ghost = draw(st.integers(min_value=1, max_value=5))
    return ServingReport(
        columns, [ShardUsage("s0", count, count, 1.0)], total_ops=0,
        shed=ghost, shed_by_tenant={"ghost": ghost},
    )


class TestColumnStatistics:
    @settings(max_examples=60, deadline=None)
    @given(replay_reports())
    def test_statistics_match_the_replaced_formulas(self, report):
        columns = report.records
        latency = columns.completed - columns.arrival
        queue = columns.started - columns.arrival
        assert report.mean_latency.hex() == old_mean(latency).hex()
        assert report.mean_queue_seconds.hex() == old_mean(queue).hex()
        payload = report.to_dict()
        assert payload["mean_latency_s"].hex() == old_mean(latency).hex()
        assert payload["mean_queue_s"].hex() == old_mean(queue).hex()
        assert hexes(
            payload[f"p{q}_latency_s"] for q in (50, 90, 99)
        ) == hexes(
            signless(old_percentile(latency, q)) for q in (50, 90, 99)
        )
        breakdowns = report.per_tenant()
        served = set()
        for code, name in enumerate(columns.tenant_names):
            own = latency[columns.tenant == code]
            if not len(own):
                assert name not in breakdowns
                continue
            served.add(name)
            breakdown = breakdowns[name]
            assert breakdown.count == len(own)
            assert breakdown.mean_latency_s.hex() == old_mean(own).hex()
            assert hexes(
                [breakdown.p50_latency_s, breakdown.p99_latency_s]
            ) == hexes(signless(old_percentile(own, q)) for q in (50, 99))
            assert payload["tenants"][name] == breakdown.to_dict()
        ghost = breakdowns["ghost"]
        assert (ghost.count, ghost.shed) == (0, report.shed)
        assert ghost.mean_latency_s != ghost.mean_latency_s
        assert payload["tenants"]["ghost"]["p99_latency_s"] is None
        assert set(breakdowns) == served | {"ghost"}
        assert report.describe()

    def test_latency_column_is_computed_once_and_read_only(self):
        report = ServingReport(
            [RequestRecord(0, 0.5, 0.5, 0.75, 1.0, "s0", 1)], [],
            total_ops=0,
        )
        latency = report.records.latency
        assert latency is report.records.latency
        assert latency.tolist() == [0.5]
        with pytest.raises(ValueError):
            latency[0] = 2.0

    def test_one_served_tenant_groups_without_a_copy(self):
        report = ServingReport(
            [RequestRecord(i, 0.0, 0.0, 0.0, 1.0 + i, "s0", 1, "bulk")
             for i in range(4)],
            [], total_ops=0, shed=1, shed_by_tenant={"ghost": 1},
        )
        grouped = report._latencies_by_tenant()
        assert list(grouped) == ["bulk"]
        assert grouped["bulk"] is report.records.latency


class TestPercentiles:
    samples = st.lists(
        st.one_of(
            st.floats(width=64),
            st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
        ),
        min_size=1, max_size=300,
    )
    ranks = st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=5,
    )

    @settings(max_examples=200, deadline=None)
    @given(values=samples, qs=ranks)
    def test_one_selection_equals_per_q(self, values, qs):
        together = hexes(percentiles(values, qs))
        assert together == hexes(percentile(values, q) for q in qs)
        assert together == hexes(
            signless(old_percentile(values, q)) for q in qs
        )

    def test_nan_sample_falls_back_to_the_sorted_list(self):
        values = [3.0, float("nan"), 1.0, -0.0, 2.0]
        qs = (0, 20, 50, 90, 100)
        assert hexes(percentiles(values, qs)) == hexes(
            percentile(values, q) for q in qs
        )
        assert hexes(percentiles(values, qs)) == hexes(
            signless(old_percentile(values, q)) for q in qs
        )

    def test_windows_and_errors(self):
        from collections import deque

        window = deque([0.004, 0.001, 0.003, 0.002])
        assert percentiles(window, (50, 100)) == [0.002, 0.004]
        assert percentile(window, 99) == 0.004
        with pytest.raises(ServingError):
            percentiles([], (50,))
        with pytest.raises(ServingError):
            percentiles([1.0], (50, 101))
