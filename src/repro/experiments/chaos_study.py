"""Chaos study — the scenario algebra exercised end to end.

Three studies beyond :mod:`~repro.experiments.scenario_study`'s
kill/restore pair, all on the event kernel:

* **straggler vs policy** — a 2x VU9P pool where ``shard0`` runs 8x
  slow for the middle half of a saturating Poisson stream.  Unlike a
  kill, a degraded shard still *accepts* work, so blind round-robin
  keeps feeding it and the tail stretches by the slowdown factor;
  shortest-latency sees the scaled probe times and routes around the
  straggler.
* **flash crowd + correlated outage** — a Gaussian flash crowd warped
  onto the arrivals of a 3-shard pool while a correlated outage takes
  two shards down across the peak.  The survivor absorbs what it can;
  everything stays accounted (served + shed + unserved = issued).
* **chaos sweep** — a 12-cell scenario x policy x pool grid through
  :func:`~repro.serving.sweep.run_sweep`, the per-scenario
  SLO-attainment/survival table CI trends via ``BENCH_serving.json``.

The model is the scaled VGG16 stack the serving studies use, so the
study runs in seconds while keeping the paper's layer mix.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.compiler import CompilerOptions
from repro.experiments.common import paper_config
from repro.ir import zoo
from repro.pipeline import EvaluationCache, PipelineSession
from repro.serving import (
    BatcherOptions,
    ChaosScenario,
    Degrade,
    FlashCrowd,
    Outage,
    ServingReport,
    ShardPool,
    ShardServer,
    SweepGrid,
    SweepOptions,
    SweepReport,
    WorkloadSpec,
    make_requests,
    run_sweep,
    shaped_requests,
)

REQUESTS = 64
MAX_BATCH = 6
#: Wait budget ~2 per-image latencies, as in the serving study: spaced
#: open-loop arrivals need it to form batches at all.
MAX_WAIT_S = 0.010
POLICIES = ("round-robin", "least-loaded", "shortest-latency")
#: Straggler slowdown: large enough that routing around it is visibly
#: better than feeding it, small enough that it still finishes work.
DEGRADE_FACTOR = 8.0
#: Overload factor against the *simulated* service rate (the
#: analytical rate can be off by the estimation error).
LOAD = 1.2
#: Degrade shard0 across the middle half of the baseline makespan —
#: the stream is still arriving, so policy rebalancing is visible.
DEGRADE_WINDOW = (0.25, 0.75)
SWEEP_REQUESTS = 32
SWEEP_LOAD = 1.5


def _session(cache: EvaluationCache) -> PipelineSession:
    cfg, device = paper_config("vu9p")
    return PipelineSession(
        zoo.vgg16(input_size=64, include_fc=False),
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=True, pack_data=False),
        cache=cache,
    )


def _serve(
    pool: ShardPool,
    policy: str,
    qps: float,
    seed: int,
    scenario: Optional[ChaosScenario] = None,
    shapes: Sequence = (),
) -> ServingReport:
    requests = make_requests("poisson", REQUESTS, qps=qps, seed=seed)
    if shapes:
        requests = shaped_requests(requests, shapes)
    return ShardServer(pool).run(WorkloadSpec(
        traffic=requests,
        policy=policy,
        batcher=BatcherOptions(max_batch=MAX_BATCH, max_wait_s=MAX_WAIT_S),
        scenario=scenario,
    ))


def run_straggler_study(
    seed: int = 2020,
) -> List[Tuple[str, ServingReport, ServingReport]]:
    """Per policy: (baseline report, degraded-shard report)."""
    cache = EvaluationCache()
    pool = ShardPool.replicate(_session(cache), 2)
    qps = LOAD * pool.simulated_images_per_second()
    rows = []
    for policy in POLICIES:
        baseline = _serve(pool, policy, qps, seed)
        span = baseline.makespan_seconds
        scenario = ChaosScenario([
            Degrade("shard0", factor=DEGRADE_FACTOR,
                    at=DEGRADE_WINDOW[0] * span,
                    until=DEGRADE_WINDOW[1] * span),
        ])
        degraded = _serve(pool, policy, qps, seed, scenario=scenario)
        rows.append((policy, baseline, degraded))
    return rows


def run_flash_outage_study(
    seed: int = 2020,
) -> List[Tuple[str, ServingReport]]:
    """A 3-shard pool under least-loaded: baseline, + flash crowd,
    + a correlated 2-shard outage across the flash peak."""
    cache = EvaluationCache()
    pool = ShardPool.replicate(_session(cache), 3)
    qps = LOAD * pool.simulated_images_per_second()
    baseline = _serve(pool, "least-loaded", qps, seed)
    span = baseline.makespan_seconds
    flash = FlashCrowd(amplitude=3.0, at=0.5 * span, width_s=0.05 * span)
    shaped = _serve(pool, "least-loaded", qps, seed, shapes=(flash,))
    outage = ChaosScenario([
        Outage(("shard0", "shard1"), at=0.45 * span, until=0.70 * span),
    ])
    squeezed = _serve(pool, "least-loaded", qps, seed,
                      scenario=outage, shapes=(flash,))
    return [
        ("baseline", baseline),
        ("flash crowd", shaped),
        ("flash + outage", squeezed),
    ]


def run_chaos_sweep(seed: int = 2020) -> SweepReport:
    """A 12-cell grid (3 scenarios x 2 policies x 2 pools), serially.

    Scenario times are fractions of the expected stream span — the
    grid wants absolute virtual seconds, and the open-loop span is
    ``requests / qps`` by construction.
    """
    cache = EvaluationCache()
    session = _session(cache)
    pool = ShardPool.replicate(session, 2)
    span = SWEEP_REQUESTS / (
        SWEEP_LOAD * pool.simulated_images_per_second()
    )
    grid = SweepGrid(
        scenarios=(
            "none",
            f"degrade:shard0@{0.2 * span:.6f}..{0.7 * span:.6f}"
            f"x{DEGRADE_FACTOR:g}",
            f"kill:shard0@{0.25 * span:.6f},restore@{0.6 * span:.6f}",
        ),
        policies=("round-robin", "shortest-latency"),
        pool_sizes=(2, 3),
    )
    options = SweepOptions(requests=SWEEP_REQUESTS, load_factor=SWEEP_LOAD)
    return run_sweep(session, grid, options, seed=seed)


def format_study(
    stragglers: List[Tuple[str, ServingReport, ServingReport]],
    flash_rows: List[Tuple[str, ServingReport]],
    sweep: SweepReport,
) -> str:
    table = Table(
        f"Straggler: shard0 x{DEGRADE_FACTOR:g} slow across the middle "
        f"half (VGG16-64, 2x vu9p, Poisson @ {LOAD:.1f}x simulated "
        f"rate)",
        ["Policy", "GOPS", "GOPS (slow)", "stretch", "p99 ms",
         "p99 ms (slow)", "straggler share"],
    )
    for policy, baseline, degraded in stragglers:
        share = degraded.per_shard()["shard0"]
        table.add_row(
            policy,
            f"{baseline.throughput_gops:.1f}",
            f"{degraded.throughput_gops:.1f}",
            f"{degraded.makespan_seconds / baseline.makespan_seconds:.2f}x",
            f"{baseline.latency_percentile(99) * 1e3:.2f}",
            f"{degraded.latency_percentile(99) * 1e3:.2f}",
            f"{share.requests}/{degraded.count}",
        )
    served_all = all(
        degraded.count == REQUESTS for _, _, degraded in stragglers
    )
    table.add_note(
        "a degraded shard still serves — "
        + ("no request lost" if served_all else "REQUESTS LOST")
        + "; latency-aware policies route around it"
    )

    flash_table = Table(
        "Flash crowd + correlated outage (VGG16-64, 3x vu9p, "
        "least-loaded)",
        ["Condition", "served", "shed", "unserved", "p99 ms", "GOPS"],
    )
    for label, report in flash_rows:
        flash_table.add_row(
            label,
            f"{report.count}",
            f"{report.shed}",
            f"{report.unserved}",
            f"{report.latency_percentile(99) * 1e3:.2f}",
            f"{report.throughput_gops:.1f}",
        )
    accounted = all(
        report.count + report.shed + report.unserved == REQUESTS
        for _, report in flash_rows
    )
    flash_table.add_note(
        "served + shed + unserved == issued: "
        + ("holds for every condition" if accounted else "VIOLATED")
    )

    return (
        table.render() + "\n\n" + flash_table.render() + "\n\n"
        + sweep.describe()
    )


def main(seed: int = 2020) -> str:
    output = format_study(
        run_straggler_study(seed=seed),
        run_flash_outage_study(seed=seed),
        run_chaos_sweep(seed=seed),
    )
    print(output)
    return output


if __name__ == "__main__":
    main()
