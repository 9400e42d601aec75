"""Serving layer: an event-kernel traffic simulator over shard pools.

Turns the one-image-at-a-time runtime into a traffic-serving system
built around a shared discrete-event kernel
(:class:`~repro.serving.events.EventKernel`): event *sources* (open-
loop traffic, replayed arrival traces, closed-loop client pools with
think time, failure scenarios) feed typed events to *handlers* — the
:class:`DynamicBatcher` coalescing requests under a batch/wait budget,
the :class:`Scheduler` with pluggable policies and shard availability,
an optional :class:`SloController` shedding or rerouting when the
observed p99 drifts, an optional :class:`AutoscalerController` driving
the pool between min and max shards against a utilisation or p99
target, and the :class:`ShardPool` of
:class:`~repro.pipeline.session.PipelineSession` deployments placing
batches on virtual timelines.  ``repro serve`` is the CLI entry point;
``docs/serving.md`` documents the event taxonomy, policies, traffic
models, autoscaling and metric definitions.
"""

from __future__ import annotations

from repro.serving.autoscaler import (
    AUTOSCALE_METRICS,
    AutoscalerController,
    AutoscalerOptions,
)
from repro.serving.batcher import BatcherOptions, DynamicBatcher
from repro.serving.chaos import (
    CHAOS_KINDS,
    ChaosScenario,
    Degrade,
    Kill,
    Outage,
    Restore,
    Stragglers,
    parse_scenario,
)
from repro.serving.fastforward import (
    fastforward_serve,
    ineligible_reason,
)
from repro.serving.events import (
    Arrival,
    BatchDone,
    Event,
    EventKernel,
    EventSource,
    Flush,
    PolicyTick,
    ShardDegrade,
    ShardDown,
    ShardRestoreRate,
    ShardUp,
)
from repro.serving.metrics import (
    RequestColumns,
    RequestRecord,
    ScaleEvent,
    ServingReport,
    ShardUsage,
    TenantBreakdown,
    percentile,
)
from repro.serving.scenarios import (
    FailureScenario,
    ScenarioStep,
)
from repro.serving.scheduler import (
    POLICIES,
    LeastLoaded,
    RoundRobin,
    Scheduler,
    SchedulingPolicy,
    ShortestExpectedLatency,
    WeightedFair,
    make_policy,
)
from repro.serving.server import ENGINES, ShardServer, analytical_reference
from repro.serving.shard import Shard, ShardPool
from repro.serving.slo import SLO_ACTIONS, SloController, SloOptions
from repro.serving.tenancy import (
    DEFAULT_TENANT,
    TENANT_TIERS,
    TenantSet,
    TenantSpec,
    assign_tenants,
    parse_tenant,
    parse_tenants,
)
from repro.serving.sweep import (
    SWEEP_EXECUTORS,
    SweepCell,
    SweepGrid,
    SweepOptions,
    SweepReport,
    run_sweep,
)
from repro.serving.traffic import (
    THINK_DISTRIBUTIONS,
    TRACE_FIELDS,
    TRAFFIC_MODELS,
    TRAFFIC_SHAPES,
    ClosedLoopClientPool,
    Diurnal,
    FlashCrowd,
    OpenLoopSource,
    Request,
    TraceSource,
    load_tagged_trace,
    load_trace,
    make_requests,
    merge_streams,
    parse_shape,
    shape_arrivals,
    shaped_trace,
)
from repro.serving.workload import WorkloadSpec

__all__ = [
    "analytical_reference",
    "Arrival",
    "AUTOSCALE_METRICS",
    "AutoscalerController",
    "AutoscalerOptions",
    "BatchDone",
    "BatcherOptions",
    "CHAOS_KINDS",
    "ChaosScenario",
    "ClosedLoopClientPool",
    "DEFAULT_TENANT",
    "Degrade",
    "Diurnal",
    "DynamicBatcher",
    "ENGINES",
    "assign_tenants",
    "Event",
    "EventKernel",
    "EventSource",
    "FailureScenario",
    "fastforward_serve",
    "FlashCrowd",
    "Flush",
    "ineligible_reason",
    "Kill",
    "LeastLoaded",
    "load_tagged_trace",
    "load_trace",
    "make_policy",
    "make_requests",
    "merge_streams",
    "OpenLoopSource",
    "Outage",
    "parse_scenario",
    "parse_shape",
    "parse_tenant",
    "parse_tenants",
    "percentile",
    "POLICIES",
    "PolicyTick",
    "Request",
    "RequestColumns",
    "RequestRecord",
    "Restore",
    "RoundRobin",
    "run_sweep",
    "ScaleEvent",
    "ScenarioStep",
    "Scheduler",
    "SchedulingPolicy",
    "ServingReport",
    "shape_arrivals",
    "shaped_trace",
    "Shard",
    "ShardDegrade",
    "ShardDown",
    "ShardPool",
    "ShardRestoreRate",
    "ShardServer",
    "ShardUp",
    "ShardUsage",
    "ShortestExpectedLatency",
    "SLO_ACTIONS",
    "SloController",
    "SloOptions",
    "Stragglers",
    "SWEEP_EXECUTORS",
    "SweepCell",
    "SweepGrid",
    "SweepOptions",
    "SweepReport",
    "TENANT_TIERS",
    "TenantBreakdown",
    "TenantSet",
    "TenantSpec",
    "THINK_DISTRIBUTIONS",
    "TRACE_FIELDS",
    "TraceSource",
    "TRAFFIC_MODELS",
    "TRAFFIC_SHAPES",
    "WeightedFair",
    "WorkloadSpec",
]
