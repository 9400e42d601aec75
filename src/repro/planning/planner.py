"""The two-tier capacity-planning driver.

``plan_capacity`` wires the planning package together:

1. **resolve** — each :class:`~repro.planning.grid.KindSpec` becomes a
   :class:`DeviceKind`: the paper configuration of the device (or a DSE
   pick for non-paper devices), a pinned
   :class:`~repro.pipeline.session.PipelineSession`, the analytical
   Eq. 12-15 latency (one vectorized
   :class:`~repro.estimator.vectorized.BatchLayerEstimator` call per
   cfg) and the simulated per-image probe the admissible bounds need;
2. **Tier A** — the whole :class:`~repro.planning.grid.PlanGrid` goes
   through :class:`~repro.planning.scorer.AnalyticPlanScorer` in one
   vectorized call; pruned plans are out (provably infeasible), kept
   plans are ranked by the surrogate (feasible first, then billed
   shard-seconds, projected p99, grid index);
3. **Tier B** — the top-K survivors replay through the event kernel
   (:mod:`repro.planning.replay`), and the
   :class:`ProvisioningPlan` re-ranks them by *replayed* feasibility,
   billed shard-seconds and p99, surrogate columns alongside so the
   surrogate's error stays visible.

The report also emits autoscaler settings (min/max shards and a target)
so a plan drops straight into ``repro serve --autoscale`` — see
``docs/serving.md``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler import CompilerOptions
from repro.errors import DeviceError, PlanningError
from repro.estimator.vectorized import BatchLayerEstimator
from repro.fpga import FpgaDevice, get_device
from repro.ir.graph import Network
from repro.pipeline.cache import EvaluationCache
from repro.pipeline.session import PipelineSession, _load_network
from repro.pipeline.store import EvaluationStore
from repro.planning.grid import KindSpec, PlanGrid, parse_devices
from repro.planning.replay import ReplayJob, _ReplayState
from repro.planning.scorer import (
    AnalyticPlanScorer,
    ArrivalProfile,
    PRUNE_REASONS,
)
from repro.serving.scheduler import POLICIES
from repro.serving.shard import Shard
from repro.serving.sweep import map_pinned
from repro.serving.traffic import (
    TRAFFIC_MODELS,
    RequestStream,
    TraceSource,
    make_requests,
)


class DeviceKind:
    """One resolved device kind of the fleet.

    Owns the pinned session every shard of this kind clones from, the
    first shard itself (so the probe is simulated exactly once and
    every replica twins off it), the billing weight and — parent side
    only — the analytical Eq. 12-15 latency for the report.
    """

    def __init__(
        self,
        name: str,
        device: FpgaDevice,
        cfg,
        session: PipelineSession,
        weight: Optional[float],
    ):
        self.name = name
        self.device = device
        self.cfg = cfg
        self.session = session
        self.weight = float(
            weight if weight is not None else cfg.instances
        )
        self.shard0 = Shard(session, name=f"{name}0")
        #: Eq. 12-15 per-image latency; filled by :func:`resolve_kinds`
        #: (workers never need it).
        self.analytical_latency_s: Optional[float] = None

    @property
    def instances(self) -> int:
        return self.cfg.instances

    def probe_seconds(self) -> float:
        """Simulated per-image service time — the planner's ground
        truth, shared with every replica via the probe twin."""
        return self.shard0.probe_seconds()

    @classmethod
    def build(
        cls,
        network: Network,
        device: FpgaDevice,
        cfg,
        weight: Optional[float],
        seed: int,
        cache: Optional[EvaluationCache] = None,
    ) -> "DeviceKind":
        """The picklable-payload constructor Tier B workers replay
        (network + resolved cfg round-trip through the payload; the
        quantized no-pack compile matches ``repro serve``)."""
        session = PipelineSession(
            network,
            device,
            cfg=cfg,
            compiler_options=CompilerOptions(
                quantize=True, pack_data=False
            ),
            seed=seed,
            cache=cache,
        )
        return cls(device.name, device, cfg, session, weight)

    def summary(self) -> dict:
        probe = self.probe_seconds()
        analytic = self.analytical_latency_s
        return {
            "device": self.name,
            "cfg": f"pi={self.cfg.pi} po={self.cfg.po} pt={self.cfg.pt}",
            "instances": self.instances,
            "weight": self.weight,
            "probe_latency_s": probe,
            "analytical_latency_s": analytic,
            "probe_over_analytical": (
                probe / analytic if analytic else None
            ),
            "shard_img_s": self.instances / probe,
        }


def resolve_kinds(
    network: Network,
    specs: Sequence[KindSpec],
    seed: int = 2020,
    cache: Optional[EvaluationCache] = None,
    store: Optional[Union[EvaluationStore, str, Path]] = None,
) -> List[DeviceKind]:
    """Specs to :class:`DeviceKind` rows, sharing one evaluation cache.

    Paper devices (``vu9p``, ``pynq-z1``) pin the Table-4 config; any
    other catalog device runs its DSE.  Each cfg's analytical latency
    comes from one vectorized ``network_latencies`` call, which reads
    no cache.  The pinned sessions share ``cache`` for their estimates.
    With a ``store``, each kind's device scope is warmed into the cache
    once, before its DSE (creating the store directory, so a path that
    cannot be one fails here); flushing the cache back is the caller's
    job.
    """
    cache = cache if cache is not None else EvaluationCache()
    if isinstance(store, (str, Path)):
        store = EvaluationStore(store)
    from repro.experiments.common import paper_config

    kinds: List[DeviceKind] = []
    warmed = set()
    for spec in specs:
        device = get_device(spec.device)
        if store is not None and device.name not in warmed:
            store.warm(cache, device=device.name)
            warmed.add(device.name)
        try:
            cfg, _ = paper_config(device.name)
        except DeviceError:
            cfg = PipelineSession(
                network, device, cache=cache, seed=seed
            ).cfg
        kind = DeviceKind.build(
            network, device, cfg, spec.weight, seed, cache=cache
        )
        (latency,) = BatchLayerEstimator(device, network).network_latencies(
            [cfg]
        )
        if latency is None:
            raise PlanningError(
                f"{device.name}: the resolved config maps no feasible "
                "(mode, dataflow) for some layer"
            )
        kind.analytical_latency_s = latency
        kinds.append(kind)
    return kinds


@dataclass(frozen=True)
class PlanOptions:
    """Knobs of one :func:`plan_capacity` run.

    Exactly one workload is required: a synthetic ``rate`` (with
    ``traffic`` model and ``requests`` count) or a replayed ``trace``.
    ``max_wait_s`` defaults to two per-image service rounds of the
    slowest kind — long enough to fill a batch at any rate the fleet
    sustains, negligible against any sensible SLO.  ``jobs > 1``
    replays the Tier B finalists across that many worker processes;
    the report is byte-identical either way.
    """

    slo_p99_s: float
    rate: Optional[float] = None
    requests: int = 96
    traffic: str = "poisson"
    burst: int = 8
    trace: Optional[str] = None
    trace_scale: float = 1.0
    trace_loop: int = 1
    top_k: int = 5
    jobs: int = 1
    policy: str = "shortest-latency"
    max_wait_s: Optional[float] = None
    batch_options: Optional[Tuple[int, ...]] = None
    seed: int = 2020
    event_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slo_p99_s <= 0 or not math.isfinite(self.slo_p99_s):
            raise PlanningError(
                f"--slo-p99 must be positive and finite, "
                f"got {self.slo_p99_s}"
            )
        if (self.rate is None) == (self.trace is None):
            raise PlanningError(
                "exactly one workload is required: --rate or --trace"
            )
        if self.rate is not None and (
            self.rate <= 0 or not math.isfinite(self.rate)
        ):
            raise PlanningError(
                f"--rate must be positive and finite, got {self.rate}"
            )
        if self.requests < 1:
            raise PlanningError(
                f"requests must be >= 1, got {self.requests}"
            )
        if self.traffic not in TRAFFIC_MODELS:
            raise PlanningError(
                f"unknown traffic model {self.traffic!r}; "
                f"expected one of {TRAFFIC_MODELS}"
            )
        if self.trace_scale <= 0 or not math.isfinite(self.trace_scale):
            raise PlanningError(
                f"trace scale must be positive, got {self.trace_scale}"
            )
        if self.trace_loop < 1:
            raise PlanningError(
                f"trace loop must be >= 1, got {self.trace_loop}"
            )
        if self.top_k < 1:
            raise PlanningError(
                f"--top-k must be >= 1, got {self.top_k}"
            )
        if self.jobs < 1:
            raise PlanningError(f"jobs must be >= 1, got {self.jobs}")
        if self.policy not in POLICIES:
            raise PlanningError(
                f"unknown policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.max_wait_s is not None and self.max_wait_s < 0:
            raise PlanningError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.event_budget is not None and self.event_budget < 1:
            raise PlanningError(
                f"event budget must be >= 1, got {self.event_budget}"
            )


def _materialise_workload(
    options: PlanOptions,
) -> Tuple[RequestStream, str]:
    """The request stream Tier A profiles and Tier B replays."""
    if options.trace is not None:
        source = TraceSource.load(
            options.trace,
            time_scale=options.trace_scale,
            loop=options.trace_loop,
        )
        return source.requests(), source.describe()
    requests = make_requests(
        options.traffic,
        options.requests,
        qps=options.rate,
        seed=options.seed,
        burst=options.burst,
    )
    label = (
        f"{options.traffic} x{options.requests} at "
        f"{options.rate:g} req/s (seed {options.seed})"
    )
    return requests, label


class ProvisioningPlan:
    """The final planner report: finalists ranked by replay, the
    surrogate's predictions alongside, and autoscaler settings for the
    winner.  ``to_dict`` carries ``plans_per_second`` top-level so the
    perf trajectory folds it straight in; the ``timings`` block is the
    only wall-clock-dependent part — everything else is deterministic
    in the seed."""

    def __init__(
        self,
        kinds: Sequence[DeviceKind],
        grid: PlanGrid,
        profile: ArrivalProfile,
        workload: str,
        options: PlanOptions,
        max_wait_s: float,
        pruned_counts: Dict[str, int],
        feasible_count: int,
        finalists: List[dict],
        tier_a_seconds: float,
        tier_b_seconds: float,
    ):
        self.kinds = list(kinds)
        self.grid = grid
        self.profile = profile
        self.workload = workload
        self.options = options
        self.max_wait_s = max_wait_s
        self.pruned_counts = pruned_counts
        self.feasible_count = feasible_count
        #: Replay-ranked: SLO-meeting plans first, then billed
        #: shard-seconds, replayed p99, grid index.
        self.finalists = finalists
        self.tier_a_seconds = tier_a_seconds
        self.tier_b_seconds = tier_b_seconds

    @property
    def plan_count(self) -> int:
        return len(self.grid)

    @property
    def pruned_count(self) -> int:
        return sum(self.pruned_counts.values())

    @property
    def plans_per_second(self) -> float:
        return self.plan_count / max(self.tier_a_seconds, 1e-9)

    @property
    def winner(self) -> dict:
        return self.finalists[0]

    @property
    def slo_met(self) -> bool:
        return bool(self.winner["replay"]["slo_ok"])

    def autoscaler_settings(self) -> dict:
        """Settings a ``repro serve --autoscale`` run of the winning
        mix would use: scale between the smallest prefix of the mix
        that covers the arrival rate and the full mix, targeting the
        planned SLO."""
        winner = self.winner
        counts = winner["counts"]
        batch = winner["max_batch"]
        shards = []  # (effective img/s, kind name) per deployed shard
        for kind in self.kinds:
            rounds = math.ceil(batch / kind.instances)
            rate = batch / (rounds * kind.probe_seconds())
            shards.extend([rate] * counts[kind.name])
        shards.sort(reverse=True)
        total = len(shards)
        min_shards = total
        if math.isfinite(self.profile.rate):
            covered = 0.0
            for index, rate in enumerate(shards, start=1):
                covered += rate
                if covered >= self.profile.rate:
                    min_shards = index
                    break
        return {
            "min_shards": min_shards,
            "max_shards": total,
            "target_p99_s": self.options.slo_p99_s,
            "max_batch": batch,
            "max_wait_s": self.max_wait_s,
            "policy": self.options.policy,
        }

    def to_dict(self) -> dict:
        winner = self.winner
        return {
            "devices": [kind.summary() for kind in self.kinds],
            "workload": self.workload,
            "profile": {
                "count": self.profile.count,
                "rate": (
                    self.profile.rate
                    if math.isfinite(self.profile.rate)
                    else None
                ),
                "last_arrival_s": self.profile.last_arrival_s,
            },
            "slo_p99_s": self.options.slo_p99_s,
            "max_wait_s": self.max_wait_s,
            "policy": self.options.policy,
            "grid": self.grid.describe(),
            "plan_count": self.plan_count,
            "pruned": dict(self.pruned_counts),
            "feasible_count": self.feasible_count,
            "finalists": self.finalists,
            "winner": winner,
            "slo_met": self.slo_met,
            "autoscaler": self.autoscaler_settings(),
            # Trajectory summary fields (wall-clock dependent ones
            # grouped under "timings" plus the plans_per_second figure
            # the bench floor tracks).
            "count": winner["replay"]["served"],
            "p99_latency_s": winner["replay"]["p99_latency_s"],
            "shard_seconds": winner["replay"]["shard_seconds"],
            "billed_shard_seconds": winner["replay"][
                "billed_shard_seconds"
            ],
            "plans_per_second": self.plans_per_second,
            "timings": {
                "tier_a_seconds": self.tier_a_seconds,
                "tier_b_seconds": self.tier_b_seconds,
            },
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def describe(self) -> str:
        lines = [
            f"workload: {self.workload}",
            f"SLO: p99 <= {self.options.slo_p99_s * 1e3:.3f} ms "
            f"({self.options.policy}, max_wait "
            f"{self.max_wait_s * 1e6:.1f} us)",
            f"grid: {self.grid.describe()}",
            "tier A: scored {count} plans in {sec:.3f} s "
            "({pps:,.0f} plans/s); pruned {pruned} "
            "({reasons}), {feasible} surrogate-feasible".format(
                count=self.plan_count,
                sec=self.tier_a_seconds,
                pps=self.plans_per_second,
                pruned=self.pruned_count,
                reasons=", ".join(
                    f"{name}: {count}"
                    for name, count in self.pruned_counts.items()
                )
                or "none",
                feasible=self.feasible_count,
            ),
            f"tier B: replayed {len(self.finalists)} finalists in "
            f"{self.tier_b_seconds:.3f} s",
            "",
            "  #  plan  mix                      batch  replay p99"
            "      billed s      surrogate p99   slo",
        ]
        for rank, row in enumerate(self.finalists, start=1):
            mix = " + ".join(
                f"{count}x{name}"
                for name, count in row["counts"].items()
                if count
            )
            replay = row["replay"]
            surrogate = row["surrogate"]
            p99 = replay["p99_latency_s"]
            p99_text = f"{p99 * 1e6:9.2f} us" if p99 else "        —"
            lines.append(
                f"{rank:>3}  {row['plan']:>4}  {mix:<24} "
                f"{row['max_batch']:>5}  {p99_text}  "
                f"{replay['billed_shard_seconds'] * 1e3:9.3f} ms  "
                f"{surrogate['p99_s'] * 1e6:12.2f} us  "
                f"{'ok' if replay['slo_ok'] else 'MISS'}"
            )
        verdict = "meets" if self.slo_met else "MISSES"
        winner = self.winner
        mix = " + ".join(
            f"{count}x{name}"
            for name, count in winner["counts"].items()
            if count
        )
        auto = self.autoscaler_settings()
        lines += [
            "",
            f"winner: plan {winner['plan']} ({mix}, batch "
            f"{winner['max_batch']}) {verdict} the SLO",
            f"autoscaler: min {auto['min_shards']} / max "
            f"{auto['max_shards']} shards, target p99 "
            f"{auto['target_p99_s'] * 1e3:.3f} ms",
        ]
        return "\n".join(lines)


def plan_capacity(
    model: Union[str, Network],
    devices: Union[str, Sequence[KindSpec]],
    options: PlanOptions,
    cache: Optional[EvaluationCache] = None,
    store: Optional[Union[EvaluationStore, str, Path]] = None,
) -> ProvisioningPlan:
    """Plan a fleet for ``model`` over ``devices`` (spec string or
    :class:`KindSpec` rows) — the two-tier pipeline described in the
    module docstring."""
    network = _load_network(model) if isinstance(model, str) else model
    specs = (
        parse_devices(devices) if isinstance(devices, str) else tuple(devices)
    )
    if not specs:
        raise PlanningError("the device spec names no kinds")
    cache = cache if cache is not None else EvaluationCache()
    if isinstance(store, (str, Path)):
        store = EvaluationStore(store)
    kinds = resolve_kinds(
        network, specs, seed=options.seed, cache=cache, store=store
    )

    batch_options = options.batch_options
    if batch_options is None:
        top = 2 * max(kind.instances for kind in kinds)
        batch_options = tuple(
            sorted(
                {1, top} | {kind.instances for kind in kinds}
            )
        )
    grid = PlanGrid(specs, batch_options)

    requests, workload = _materialise_workload(options)
    profile = ArrivalProfile.from_requests(requests)
    if options.max_wait_s is not None:
        max_wait_s = options.max_wait_s
    else:
        max_wait_s = 2.0 * max(kind.probe_seconds() for kind in kinds)

    # -- Tier A: vectorized surrogate over the whole grid -------------
    scorer = AnalyticPlanScorer(
        service_seconds=[kind.probe_seconds() for kind in kinds],
        instances=[kind.instances for kind in kinds],
        weights=[kind.weight for kind in kinds],
    )
    tier_a_start = time.perf_counter()
    scores = scorer.score(
        grid.counts, grid.batches, profile, options.slo_p99_s,
        max_wait_s=max_wait_s,
    )
    tier_a_seconds = time.perf_counter() - tier_a_start

    kept = [i for i in range(len(grid)) if scores.pruned[i] == 0]
    if not kept:
        raise PlanningError(
            "every plan is provably infeasible for this SLO — raise "
            "the shard ranges, the SLO, or lower the rate "
            f"(grid: {grid.describe()})"
        )
    kept.sort(
        key=lambda i: (
            0 if scores.feasible[i] else 1,
            float(scores.billed_shard_seconds[i]),
            float(scores.p99_s[i]),
            i,
        )
    )
    finalist_indices = kept[: options.top_k]
    pruned_counts = {
        PRUNE_REASONS[code]: int((scores.pruned == code).sum())
        for code in (1, 2)
        if int((scores.pruned == code).sum())
    }
    feasible_count = int(scores.feasible.sum())

    # -- Tier B: exact replay of the finalists ------------------------
    arrivals = requests.arrivals
    state = _ReplayState(
        kinds, arrivals, options.policy, max_wait_s,
        options.event_budget, options.slo_p99_s,
    )
    payload = (
        [
            (network, kind.device, kind.cfg, kind.weight, options.seed)
            for kind in kinds
        ],
        arrivals,
        options.policy,
        max_wait_s,
        options.event_budget,
        options.slo_p99_s,
    )
    jobs = [
        ReplayJob(index, *grid.plan(index)) for index in finalist_indices
    ]
    tier_b_start = time.perf_counter()
    replayed = map_pinned(
        state, _ReplayState.from_payload, payload, jobs, options.jobs
    )
    tier_b_seconds = time.perf_counter() - tier_b_start

    finalists = []
    for row in replayed:
        index = row["plan"]
        counts, max_batch = grid.plan(index)
        finalists.append(
            {
                "plan": index,
                "counts": {
                    kind.name: count
                    for kind, count in zip(kinds, counts)
                },
                "max_batch": max_batch,
                "surrogate": {
                    "utilisation": float(scores.utilisation[index]),
                    "queue_wait_p99_s": float(
                        scores.queue_wait_p99_s[index]
                    ),
                    "fill_wait_s": float(scores.fill_wait_s[index]),
                    "p99_s": float(scores.p99_s[index]),
                    "billed_shard_seconds": float(
                        scores.billed_shard_seconds[index]
                    ),
                    "feasible": bool(scores.feasible[index]),
                },
                "replay": row,
            }
        )
    finalists.sort(
        key=lambda item: (
            0 if item["replay"]["slo_ok"] else 1,
            item["replay"]["billed_shard_seconds"],
            item["replay"]["p99_latency_s"]
            if item["replay"]["p99_latency_s"] is not None
            else math.inf,
            item["plan"],
        )
    )

    report = ProvisioningPlan(
        kinds=kinds,
        grid=grid,
        profile=profile,
        workload=workload,
        options=options,
        max_wait_s=max_wait_s,
        pruned_counts=pruned_counts,
        feasible_count=feasible_count,
        finalists=finalists,
        tier_a_seconds=tier_a_seconds,
        tier_b_seconds=tier_b_seconds,
    )
    if store is not None:
        store.flush(cache)
    return report
