"""Process-parallel chaos sweeps: scenario x policy x pool grids.

One serve run answers one question; robustness questions are grids —
*every* scenario against *every* policy at *every* pool size, seeded,
so the survival curves are reproducible and two branches can diff
them.  :func:`run_sweep` executes a :class:`SweepGrid` under
:class:`SweepOptions` and aggregates per-scenario SLO attainment and
survival fractions into a :class:`SweepReport` whose JSON form is
consumable by ``benchmarks/append_trajectory.py``.

Parallelism is :func:`map_pinned`, the pinned-payload process pool the
capacity planner's Tier B replay shares: with ``jobs > 1`` workers are
primed once via a pool initializer with a picklable payload — the
network, device and *resolved* config, so no worker re-runs the DSE —
and each cell runs a complete, independent simulation in whatever
process picks it up.  Determinism is preserved by construction: a
cell's result depends only on the cell (its seed is ``base seed +
cell index``), results carry no wall-clock fields, and they come back
in grid order — so ``jobs=2`` produces byte-identical report JSON to
``jobs=1`` (a tier-1 test pins this).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.serving.batcher import BatcherOptions
from repro.serving.chaos import parse_scenario
from repro.serving.scheduler import POLICIES
from repro.serving.server import ShardServer
from repro.serving.workload import WorkloadSpec
from repro.serving.shard import ShardPool
from repro.serving.slo import SLO_ACTIONS, SloOptions
from repro.serving.traffic import (
    TraceSource,
    make_requests,
    parse_shape,
    shaped_requests,
    shaped_trace,
)

#: The scenario spec meaning "no perturbation" in a grid.
BASELINE_SCENARIO = "none"

#: Survival-curve abscissae, as multiples of the per-cell SLO target.
SURVIVAL_MULTIPLES = (1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class SweepOptions:
    """Knobs shared by every cell of one sweep.

    ``load_factor`` scales each pool's *simulated* service rate into
    the open-loop arrival rate, so a 3-shard cell faces proportionally
    more traffic than a 1-shard cell and cells stress comparable
    operating points.  ``slo_p99_s`` pins the attainment target; left
    ``None`` it defaults per cell to 4 batch service times on the
    cell's fastest shard.  ``slo_action`` arms a
    :class:`~repro.serving.slo.SloController` (``None`` = observe
    only).  ``shapes`` are ``--shape`` specs warped onto every cell's
    arrivals — synthetic *or* replayed: with ``trace`` set, every cell
    replays the recorded arrivals (rebased, ``trace_scale``-scaled,
    ``trace_loop``-repeated) composed through
    :func:`~repro.serving.traffic.shaped_trace`, and the synthetic
    knobs (``requests``/``traffic``/``load_factor``/``burst``) are
    ignored.  The trace is read and the shape composition is applied
    *here*, eagerly: a missing file, a malformed trace or a bad
    shape x trace combination fails at construction — never 80 cells
    into a sweep — and workers inherit the composed arrivals through
    the pickled options, so no worker re-reads the file.  ``jobs > 1``
    runs the cells across that many worker processes
    (:func:`map_pinned`); the report is byte-identical either way.
    """

    jobs: int = 1
    requests: int = 48
    traffic: str = "poisson"
    load_factor: float = 1.5
    burst: int = 8
    max_batch: Optional[int] = None
    max_wait_s: float = 0.0
    slo_p99_s: Optional[float] = None
    slo_action: Optional[str] = None
    shapes: Tuple[str, ...] = ()
    trace: Optional[str] = None
    trace_scale: float = 1.0
    trace_loop: int = 1
    event_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ServingError(f"jobs must be >= 1, got {self.jobs}")
        if self.requests < 1:
            raise ServingError(
                f"requests must be >= 1, got {self.requests}"
            )
        if self.load_factor <= 0:
            raise ServingError(
                f"load factor must be positive, got {self.load_factor}"
            )
        if self.slo_p99_s is not None and self.slo_p99_s <= 0:
            raise ServingError(
                f"SLO target must be positive, got {self.slo_p99_s}"
            )
        if self.slo_action is not None and (
            self.slo_action not in SLO_ACTIONS
        ):
            raise ServingError(
                f"unknown SLO action {self.slo_action!r}; "
                f"expected one of {SLO_ACTIONS}"
            )
        shapes = tuple(
            parse_shape(spec) for spec in self.shapes  # fail fast
        )
        if self.trace is None:
            if self.trace_scale != 1.0 or self.trace_loop != 1:
                raise ServingError(
                    "trace_scale/trace_loop only apply with a trace"
                )
            source = None
        else:
            # Load + scale + loop + warp once, up front: replay
            # problems surface here and the composed timeline ships to
            # workers inside the pickled options.
            source = TraceSource.load(
                self.trace,
                time_scale=self.trace_scale,
                loop=self.trace_loop,
            )
            if shapes:
                source = shaped_trace(source, shapes)
        # Not a dataclass field: derived, excluded from eq/repr, and
        # unpickling restores it via __dict__ without re-reading.
        object.__setattr__(self, "trace_source", source)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a scenario spec, a policy and a pool size."""

    index: int
    scenario: str
    policy: str
    pool_size: int
    seed: int


class SweepGrid:
    """The cross product of scenario specs, policies and pool sizes.

    Scenario specs use the :mod:`~repro.serving.chaos` grammar
    (``"none"`` for the unperturbed baseline); every spec must parse
    and must only name shards that exist at *every* pool size in the
    grid (``shard0`` .. ``shardN-1``), so a sweep fails at
    construction, not 80 cells in.
    """

    def __init__(
        self,
        scenarios: Sequence[str],
        policies: Sequence[str],
        pool_sizes: Sequence[int],
    ):
        if not scenarios or not policies or not pool_sizes:
            raise ServingError(
                "a sweep grid needs scenarios, policies and pool sizes"
            )
        for policy in policies:
            if policy not in POLICIES:
                raise ServingError(
                    f"unknown scheduling policy {policy!r}; "
                    f"expected one of {POLICIES}"
                )
        for size in pool_sizes:
            if size < 1:
                raise ServingError(
                    f"pool size must be >= 1, got {size}"
                )
        smallest = min(pool_sizes)
        valid = {f"shard{index}" for index in range(smallest)}
        for spec in scenarios:
            if spec == BASELINE_SCENARIO:
                continue
            # Seed 0 stands in: validity never depends on the seed
            # (only stragglers pulse times do).
            scenario = parse_scenario(spec, seed=0)
            missing = [n for n in scenario.names() if n not in valid]
            if missing:
                raise ServingError(
                    f"scenario {spec!r} names {missing} but the "
                    f"smallest pool in the grid has only shard0.."
                    f"shard{smallest - 1}"
                )
        self.scenarios = list(scenarios)
        self.policies = list(policies)
        self.pool_sizes = list(pool_sizes)

    def __len__(self) -> int:
        return (
            len(self.scenarios) * len(self.policies)
            * len(self.pool_sizes)
        )

    def cells(self, base_seed: int) -> List[SweepCell]:
        """The grid in canonical order (scenario-major), each cell
        seeded ``base_seed + index`` so cells are independent draws."""
        out = []
        for scenario in self.scenarios:
            for policy in self.policies:
                for size in self.pool_sizes:
                    out.append(SweepCell(
                        index=len(out),
                        scenario=scenario,
                        policy=policy,
                        pool_size=size,
                        seed=base_seed + len(out),
                    ))
        return out


class _SweepState:
    """Per-process sweep context: one session, pools cached by size."""

    def __init__(self, session, options: SweepOptions):
        self.session = session
        self.options = options
        self.shapes = tuple(
            parse_shape(spec) for spec in options.shapes
        )
        self._pools: Dict[int, ShardPool] = {}

    @classmethod
    def from_payload(cls, payload) -> "_SweepState":
        from repro.pipeline.session import PipelineSession

        network, device, cfg, compiler_options, seed, options = payload
        return cls(
            PipelineSession(
                network, device, cfg=cfg,
                compiler_options=compiler_options, seed=seed,
            ),
            options,
        )

    def pool(self, size: int) -> ShardPool:
        if size not in self._pools:
            self._pools[size] = ShardPool.replicate(self.session, size)
        return self._pools[size]

    def run(self, cell: SweepCell) -> dict:
        """One complete, deterministic simulation — no wall-clock
        fields, so serial and pooled runs serialise identically."""
        options = self.options
        pool = self.pool(cell.pool_size)
        # Pools are reused across cells: clear any degradation a
        # previous cell left behind *before* reading batch timings.
        pool.reset()
        max_batch = options.max_batch or max(
            shard.instances for shard in pool
        )
        target = options.slo_p99_s or 4.0 * min(
            shard.probe_service_seconds(max_batch) for shard in pool
        )
        if options.trace_source is not None:
            # Replay: same (already shape-composed) timeline in every
            # cell, so cells differ only in scenario/policy/pool.
            requests = options.trace_source.requests()
        else:
            qps = (
                options.load_factor
                * pool.simulated_images_per_second()
            )
            requests = make_requests(
                options.traffic, options.requests, qps=qps,
                seed=cell.seed, burst=options.burst,
            )
            if self.shapes:
                requests = shaped_requests(requests, self.shapes)
        scenario = (
            None if cell.scenario == BASELINE_SCENARIO
            else parse_scenario(cell.scenario, seed=cell.seed)
        )
        slo = (
            SloOptions(p99_target_s=target, action=options.slo_action)
            if options.slo_action is not None else None
        )
        server = ShardServer(pool)
        # engine="auto": scenario-free, controller-free cells ride the
        # fast-forward recurrence; anything reactive falls back to the
        # kernel, and the cell records which engine ran so a fallback
        # is visible in the report, never silent.
        report = server.run(WorkloadSpec(
            traffic=requests,
            policy=cell.policy,
            batcher=BatcherOptions(max_batch=max_batch,
                                   max_wait_s=options.max_wait_s),
            slo=slo,
            scenario=scenario,
            max_events=options.event_budget,
        ))
        issued = len(requests)
        within = {
            f"{multiple:g}x": report.served_within(multiple * target)
            for multiple in SURVIVAL_MULTIPLES
        }
        return {
            "cell": cell.index,
            "scenario": cell.scenario,
            "policy": cell.policy,
            "pool": cell.pool_size,
            "seed": cell.seed,
            "issued": issued,
            "served": report.count,
            "shed": report.shed,
            "rerouted": report.rerouted,
            "unserved": report.unserved,
            "makespan_seconds": report.makespan_seconds,
            "p50_latency_s": _safe(report.latency_percentile(50)),
            "p99_latency_s": _safe(report.latency_percentile(99)),
            "slo_target_s": target,
            "within_target": within,
            "attainment": report.slo_attainment(target),
            "survival": report.survival(target, SURVIVAL_MULTIPLES),
            "events_processed": report.events_processed,
            "engine": server.last_engine,
        }


def _safe(value: float) -> Optional[float]:
    return None if value != value else value


#: Worker-side state of :func:`map_pinned`, installed once per process
#: by the pool initializer.
_worker_state: dict = {}


def _init_worker(factory: Callable, payload) -> None:
    _worker_state["state"] = factory(payload)


def _run_item(item):
    return _worker_state["state"].run(item)


def map_pinned(
    state, factory: Callable, payload, items: Sequence, jobs: int
) -> List:
    """``[state.run(item) for item in items]``, in item order.

    With ``jobs > 1`` and more than one item, the items run across
    ``min(jobs, len(items))`` worker processes instead: each worker is
    primed once with ``factory(payload)`` — ``payload`` is picklable
    and pinned by the pool initializer, so no worker repeats the
    parent's setup (DSE, config resolution) — and runs whichever items
    it picks up.  Results come back in item order either way, so work
    whose per-item result depends only on the item is byte-identical
    serially and pooled.  ``state`` is the parent-side equivalent of
    ``factory(payload)``.
    """
    if jobs <= 1 or len(items) <= 1:
        return [state.run(item) for item in items]
    # Imported here: only a pooled run pays for the
    # concurrent/multiprocessing import chain.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)),
        initializer=_init_worker,
        initargs=(factory, payload),
    ) as pool:
        return list(pool.map(_run_item, items))


@dataclass(frozen=True)
class SweepReport:
    """Aggregated sweep results; :meth:`to_json` is the CI artifact.

    ``wall_seconds`` describes the host, not the system under test, so
    it is excluded from equality *and* from the serialised report —
    the serial-vs-pooled byte-identity guarantee depends on it.
    """

    grid: Dict
    cells: List[Dict]
    per_scenario: Dict[str, Dict]
    totals: Dict
    wall_seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> Dict:
        """Trajectory-compatible: the headline numbers sit at the top
        level, where ``append_trajectory.summarise`` reads them."""
        return {
            **self.totals,
            "grid": self.grid,
            "per_scenario": self.per_scenario,
            "cells": self.cells,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def describe(self) -> str:
        totals = self.totals
        lines = [
            f"sweep: {totals['cell_count']} cells "
            f"({len(self.grid['scenarios'])} scenario(s) x "
            f"{len(self.grid['policies'])} polic(y/ies) x "
            f"{len(self.grid['pools'])} pool size(s)), "
            f"{totals['issued']} requests issued",
            f"  served {totals['count']}, shed {totals['shed']}, "
            f"unserved {totals['unserved']}; overall SLO attainment "
            f"{totals['slo_attainment'] * 100:.1f}%",
            "  engines: " + ", ".join(
                f"{engine} x{cells}"
                for engine, cells in totals["engines"].items()
            ),
        ]
        if self.wall_seconds > 0:
            lines.append(
                f"  {self.wall_seconds:.2f} s host time "
                f"({totals['events_processed']} kernel events)"
            )
        for spec, stats in self.per_scenario.items():
            survival = ", ".join(
                f">{multiple} {fraction * 100:.0f}%"
                for multiple, fraction in stats["survival"].items()
            )
            lines.append(
                f"  {spec:40s} attainment "
                f"{stats['attainment'] * 100:5.1f}%  "
                f"unserved {stats['unserved']:3d}  [{survival}]"
            )
        return "\n".join(lines)


def _aggregate(
    grid: SweepGrid, options: SweepOptions, seed: int,
    cells: List[dict], wall_seconds: float,
) -> SweepReport:
    per_scenario: Dict[str, dict] = {}
    for spec in grid.scenarios:
        rows = [cell for cell in cells if cell["scenario"] == spec]
        issued = sum(row["issued"] for row in rows)
        within = {
            key: sum(row["within_target"][key] for row in rows)
            for key in rows[0]["within_target"]
        }
        p99s = [
            row["p99_latency_s"] for row in rows
            if row["p99_latency_s"] is not None
        ]
        per_scenario[spec] = {
            "cells": len(rows),
            "issued": issued,
            "served": sum(row["served"] for row in rows),
            "shed": sum(row["shed"] for row in rows),
            "unserved": sum(row["unserved"] for row in rows),
            "attainment": within["1x"] / issued if issued else 0.0,
            "survival": {
                key: 1.0 - count / issued if issued else 1.0
                for key, count in within.items()
            },
            "worst_p99_s": max(p99s) if p99s else None,
        }
    issued = sum(cell["issued"] for cell in cells)
    within_one = sum(cell["within_target"]["1x"] for cell in cells)
    p99s = [
        cell["p99_latency_s"] for cell in cells
        if cell["p99_latency_s"] is not None
    ]
    totals = {
        "cell_count": len(cells),
        "issued": issued,
        "count": sum(cell["served"] for cell in cells),
        "shed": sum(cell["shed"] for cell in cells),
        "rerouted": sum(cell["rerouted"] for cell in cells),
        "unserved": sum(cell["unserved"] for cell in cells),
        "slo_attainment": within_one / issued if issued else 0.0,
        "p99_latency_s": max(p99s) if p99s else None,
        "events_processed": sum(
            cell["events_processed"] for cell in cells
        ),
        # Engine accounting: how many cells fast-forwarded and how
        # many fell back to the kernel — a fallback should show up in
        # the artifact, not hide inside identical numbers.
        "engines": {
            engine: sum(
                1 for cell in cells if cell["engine"] == engine
            )
            for engine in sorted({cell["engine"] for cell in cells})
        },
    }
    return SweepReport(
        grid={
            "scenarios": list(grid.scenarios),
            "policies": list(grid.policies),
            "pools": list(grid.pool_sizes),
            "seed": seed,
            "requests": options.requests,
            "traffic": options.traffic,
            "load_factor": options.load_factor,
            "shapes": list(options.shapes),
            "trace": options.trace,
            "trace_scale": options.trace_scale,
            "trace_loop": options.trace_loop,
            "slo_action": options.slo_action,
        },
        cells=cells,
        per_scenario=per_scenario,
        totals=totals,
        wall_seconds=wall_seconds,
    )


def run_sweep(
    session,
    grid: SweepGrid,
    options: Optional[SweepOptions] = None,
    seed: int = 2020,
) -> SweepReport:
    """Run every cell of ``grid`` on replicas of ``session``.

    The session's config is resolved *here*, in the parent — one DSE
    no matter how many workers — and shipped to workers as a pinned
    payload.  With ``options.jobs == 1`` the same per-cell code runs
    on the parent's session, so serial and pooled sweeps are the same
    computation scheduled differently — which is why their reports
    serialise byte-identically.
    """
    options = options or SweepOptions()
    cells = grid.cells(seed)
    start = time.perf_counter()
    payload = (
        session.network, session.device, session.cfg,
        session.compiler_options, session.seed, options,
    )
    results = map_pinned(
        _SweepState(session, options), _SweepState.from_payload,
        payload, cells, options.jobs,
    )
    return _aggregate(
        grid, options, seed, results, time.perf_counter() - start
    )
