"""Multi-tenant serving study: noisy neighbour + tenant flash crowd.

Two tenants share one pool: ``interactive`` (latency-sensitive, three
quarters of the weight, its own p99 target) and ``bulk`` (throughput
traffic at a flooding rate).  The study contrasts two postures:

* **blind** — round-robin over the shared queue with only a *global*
  p99 SLO: the bulk flood drags every window up, the controller sheds
  indiscriminately, and the interactive tenant misses its target
  anyway (the noisy-neighbour failure mode);
* **protected** — weighted-fair scheduling (the interactive tenant
  owns three of four shards), tier-segregated batching (interactive
  requests never wait out bulk batch assembly), a per-tenant p99
  window on the interactive tenant and an admission cap on bulk
  outstanding requests.

The flash-crowd variant warps only the *bulk* tenant's arrivals with a
Gaussian intensity spike, showing the same machinery riding out a
tenant-local surge.  CI runs this study and asserts the protected
posture keeps the interactive p99 within its SLO while the blind one
misses it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.report import Table
from repro.compiler import CompilerOptions
from repro.experiments.common import paper_config
from repro.ir import zoo
from repro.pipeline import EvaluationCache, PipelineSession
from repro.serving import (
    BatcherOptions,
    FlashCrowd,
    RequestStream,
    ServingReport,
    ShardPool,
    ShardServer,
    SloOptions,
    TenantSet,
    TenantSpec,
    WorkloadSpec,
    make_requests,
    merge_streams,
    shaped_requests,
)

SHARDS = 4
MAX_BATCH = 6
#: Wait budget ~2 per-image latencies, as in the other serving studies.
MAX_WAIT_S = 0.010
#: Interactive p99 target in fast-shard batch-times (plus the wait
#: budget the batcher may legitimately spend assembling a batch).
#: Two batch-times is generous for a tenant at a quarter of the pool
#: rate with three of four shards to itself, and hopeless behind a
#: 1.6x shared-queue flood — exactly the contrast the study pins.
TARGET_BATCHES = 2
#: Interactive tenant: a quarter of the pool's simulated rate — easy
#: traffic that only misses its SLO when the bulk flood interferes.
INTERACTIVE_LOAD = 0.25
INTERACTIVE_REQUESTS = 64
#: Bulk tenant: a sustained overload of the whole pool.
BULK_LOAD = 1.6
BULK_REQUESTS = 192
#: Admission cap on bulk outstanding requests in the protected
#: posture: the flood queues at the door instead of inside the pool.
BULK_CAP = 12
#: Flash crowd: a 3x Gaussian bump over the bulk stream.
FLASH_AMPLITUDE = 2.0


def _pool(cache: EvaluationCache) -> ShardPool:
    cfg, device = paper_config("vu9p")
    session = PipelineSession(
        zoo.vgg16(input_size=64, include_fc=False),
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=True, pack_data=False),
        cache=cache,
    )
    return ShardPool.replicate(session, SHARDS)


def interactive_target_s(pool: ShardPool) -> float:
    """The interactive tenant's p99 objective on this pool."""
    batch_s = pool.shards[0].probe_service_seconds(MAX_BATCH)
    return TARGET_BATCHES * batch_s + MAX_WAIT_S


def _traffic(pool: ShardPool, seed: int, flash: bool) -> RequestStream:
    rate = pool.simulated_images_per_second()
    interactive = make_requests(
        "poisson", INTERACTIVE_REQUESTS, qps=INTERACTIVE_LOAD * rate,
        seed=seed, tenant="interactive",
    )
    bulk = make_requests(
        "poisson", BULK_REQUESTS, qps=BULK_LOAD * rate,
        seed=seed + 1, tenant="bulk",
    )
    if flash:
        last = float(bulk.arrivals[-1])
        span = last if last > 0 else 1.0
        bulk = shaped_requests(bulk, [FlashCrowd(
            amplitude=FLASH_AMPLITUDE, at=0.4 * span, width_s=0.1 * span,
        )])
    return merge_streams(interactive, bulk)


def _blind_spec(traffic, target: float) -> WorkloadSpec:
    """Round-robin + global SLO: tenants registered only for the
    per-tenant report breakdowns — same tier, no targets, no caps."""
    return WorkloadSpec(
        traffic=traffic,
        policy="round-robin",
        batcher=BatcherOptions(max_batch=MAX_BATCH, max_wait_s=MAX_WAIT_S),
        tenants=TenantSet([
            TenantSpec("interactive", weight=3.0),
            TenantSpec("bulk", weight=1.0),
        ]),
        slo=SloOptions(p99_target_s=target, action="shed",
                       window=16, min_samples=4),
    )


def _protected_spec(traffic, target: float) -> WorkloadSpec:
    """Weighted-fair + tier batching + per-tenant SLO + bulk cap."""
    return WorkloadSpec(
        traffic=traffic,
        policy="weighted-fair",
        batcher=BatcherOptions(max_batch=MAX_BATCH, max_wait_s=MAX_WAIT_S),
        tenants=TenantSet([
            TenantSpec("interactive", weight=3.0, p99_slo_s=target),
            TenantSpec("bulk", weight=1.0, tier="batch",
                       max_outstanding=BULK_CAP),
        ]),
    )


def run_noisy_neighbour(
    seed: int = 2020,
) -> Tuple[float, List[Tuple[str, ServingReport]]]:
    """(interactive target, [(posture, report)]) under a steady bulk
    flood."""
    cache = EvaluationCache()
    pool = _pool(cache)
    target = interactive_target_s(pool)
    traffic = _traffic(pool, seed, flash=False)
    rows = [
        ("blind", ShardServer(pool).run(_blind_spec(traffic, target))),
        ("protected",
         ShardServer(pool).run(_protected_spec(traffic, target))),
    ]
    return target, rows


def run_tenant_flash_crowd(
    seed: int = 2020,
) -> Tuple[float, List[Tuple[str, ServingReport]]]:
    """Same postures when the bulk tenant's arrivals spike 3x."""
    cache = EvaluationCache()
    pool = _pool(cache)
    target = interactive_target_s(pool)
    traffic = _traffic(pool, seed, flash=True)
    rows = [
        ("blind", ShardServer(pool).run(_blind_spec(traffic, target))),
        ("protected",
         ShardServer(pool).run(_protected_spec(traffic, target))),
    ]
    return target, rows


def _study_table(
    title: str, target: float, rows: List[Tuple[str, ServingReport]]
) -> Table:
    table = Table(
        title,
        ["Posture", "Tenant", "served", "shed", "admit-shed",
         "p99 ms", "target met"],
    )
    for posture, report in rows:
        for name, breakdown in sorted(report.per_tenant().items()):
            p99 = breakdown.p99_latency_s
            met = "-" if name != "interactive" else (
                "yes" if p99 == p99 and p99 <= target else "MISSED"
            )
            table.add_row(
                posture,
                name,
                f"{breakdown.count}",
                f"{breakdown.shed}",
                f"{breakdown.admission_shed}",
                f"{p99 * 1e3:.2f}" if p99 == p99 else "n/a",
                met,
            )
    table.add_note(
        f"interactive p99 target {target * 1e3:.2f} ms "
        f"({TARGET_BATCHES} batch-times + the {MAX_WAIT_S * 1e3:g} ms "
        "wait budget)"
    )
    return table


def format_study(
    target: float,
    noisy: List[Tuple[str, ServingReport]],
    flash: List[Tuple[str, ServingReport]],
) -> str:
    noisy_table = _study_table(
        f"Noisy neighbour: bulk at {BULK_LOAD:.1f}x pool rate vs "
        f"interactive at {INTERACTIVE_LOAD:.2f}x "
        f"(4x vu9p, weights 3:1, bulk cap {BULK_CAP})",
        target, noisy,
    )
    flash_table = _study_table(
        f"Tenant flash crowd: bulk arrivals spiked "
        f"x{1 + FLASH_AMPLITUDE:g} (same postures)",
        target, flash,
    )
    return noisy_table.render() + "\n\n" + flash_table.render()


def main(seed: int = 2020, report_json: Optional[str] = None) -> str:
    target, noisy = run_noisy_neighbour(seed=seed)
    _, flash = run_tenant_flash_crowd(seed=seed)
    output = format_study(target, noisy, flash)
    print(output)
    if report_json is not None:
        # The protected noisy-neighbour run is the tracked artifact: a
        # schema-2 ServingReport plus the study's target and the blind
        # posture's interactive p99, so CI can assert the contrast.
        blind = dict(noisy)["blind"]
        protected = dict(noisy)["protected"]
        blind_p99 = blind.per_tenant()["interactive"].p99_latency_s
        payload = {
            **protected.to_dict(),
            "interactive_p99_target_s": target,
            "blind_interactive_p99_s": (
                None if blind_p99 != blind_p99 else blind_p99
            ),
        }
        out = Path(report_json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {out}")
    return output


if __name__ == "__main__":
    main()
