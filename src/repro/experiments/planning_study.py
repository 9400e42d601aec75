"""Planning study — a mixed fleet beats every homogeneous pool.

The paper's Table 4 sizes one accelerator per deployment; a serving
fleet gets to *mix* them.  This study points the two-tier capacity
planner (:mod:`repro.planning`) at a sustained Poisson workload that
slightly exceeds one cloud shard's throughput and asks three fleets to
meet the same p99 SLO:

* **mixed vu9p + pynq-z1** — the planner's full grid.  One VU9P shard
  carries the bulk; a handful of 1-instance PYNQ-Z1 shards top up the
  missing capacity at a sixth of a VU9P's billing weight each;
* **vu9p only** — the classic answer: the workload overflows one
  shard, so provision two.  Meets the SLO easily and bills the whole
  second shard for a ~15% capacity top-up;
* **pynq-z1 only** — the embedded device alone would need ~26 shards;
  within any sane range the planner *proves* infeasibility (the
  capacity-backlog bound) before replaying anything.

Every number in the table is Tier B truth: the winning plans are
replayed through the event kernel, not estimated.
``benchmarks/bench_capacity_plan.py`` asserts the headline — the
mixed winner meets the SLO at strictly lower billed shard-seconds
than the best homogeneous pool.

The workload (rate, SLO, grid ranges) is shared with the benchmark
via the module constants below; ``tiny_cnn`` keeps a full study run
in the low seconds.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.report import Table
from repro.errors import PlanningError
from repro.planning import PlanOptions, ProvisioningPlan, plan_capacity

MODEL = "tiny_cnn"
#: Poisson arrivals at ~1.16x one VU9P shard's simulated throughput:
#: one cloud shard provably cannot hold the tail, two are ~42% idle.
RATE = 1_050_000.0
REQUESTS = 2048
#: The SLO every fleet must meet.  Loose enough that a full batch on
#: the PYNQ-Z1 (6 x 24 us service rounds) still fits, tight enough
#: that one overloaded VU9P provably cannot (its backlog bound alone
#: exceeds 300 us).
SLO_P99_S = 200e-6
TOP_K = 6
#: One batch option per kind's instance count, plus 1 and 2x the max.
BATCH_OPTIONS = (1, 6, 12)
#: The three fleets under comparison.
FLEETS = {
    "mixed": "vu9p:0..2+pynq-z1:0..6",
    "vu9p only": "vu9p:0..3",
    "pynq-z1 only": "pynq-z1:0..8",
}


def run_fleet(
    devices: str, seed: int = 2020, jobs: int = 1,
) -> Optional[ProvisioningPlan]:
    """Plan one fleet; ``None`` when the planner proves the whole grid
    infeasible (the pynq-only case)."""
    options = PlanOptions(
        slo_p99_s=SLO_P99_S,
        rate=RATE,
        requests=REQUESTS,
        top_k=TOP_K,
        batch_options=BATCH_OPTIONS,
        seed=seed,
        jobs=jobs,
    )
    try:
        return plan_capacity(MODEL, devices, options)
    except PlanningError as exc:
        if "provably infeasible" not in str(exc):
            raise
        return None


def run_study(
    seed: int = 2020, jobs: int = 1,
) -> Dict[str, Optional[ProvisioningPlan]]:
    return {
        name: run_fleet(devices, seed=seed, jobs=jobs)
        for name, devices in FLEETS.items()
    }


def main(seed: int = 2020) -> Dict[str, Optional[ProvisioningPlan]]:
    plans = run_study(seed=seed)
    table = Table(
        f"Planning study: {MODEL} @ {RATE:,.0f} req/s Poisson, "
        f"p99 SLO {SLO_P99_S * 1e6:.0f} us (seed {seed})",
        ["fleet", "winner", "batch", "replayed p99 (us)",
         "billed shard-ms", "SLO"],
    )
    for name, plan in plans.items():
        if plan is None:
            table.add_row(
                name, "— (provably infeasible)", "—", "—", "—", "MISS"
            )
            continue
        winner = plan.winner
        mix = " + ".join(
            f"{count}x{kind}"
            for kind, count in winner["counts"].items()
            if count
        )
        replay = winner["replay"]
        table.add_row(
            name,
            mix,
            winner["max_batch"],
            f"{replay['p99_latency_s'] * 1e6:.1f}",
            f"{replay['billed_shard_seconds'] * 1e3:.2f}",
            "ok" if replay["slo_ok"] else "MISS",
        )
    mixed = plans["mixed"]
    homogeneous = [
        plan for name, plan in plans.items()
        if name != "mixed" and plan is not None and plan.slo_met
    ]
    if mixed is not None and mixed.slo_met and homogeneous:
        best = min(
            plan.winner["replay"]["billed_shard_seconds"]
            for plan in homogeneous
        )
        ours = mixed.winner["replay"]["billed_shard_seconds"]
        table.add_note(
            f"mixed fleet bills {ours * 1e3:.2f} shard-ms vs "
            f"{best * 1e3:.2f} for the best homogeneous pool "
            f"({(1 - ours / best) * 100:.0f}% cheaper at the same SLO)"
        )
        table.add_note(
            f"tier A scored {mixed.plan_count} plans at "
            f"{mixed.plans_per_second:,.0f} plans/s; tier B replayed "
            f"{len(mixed.finalists)} finalists"
        )
    print(table.render())
    return plans


if __name__ == "__main__":
    main()
