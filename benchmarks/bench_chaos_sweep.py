"""Benchmark: a 108-cell chaos sweep, serial and across 4 workers.

The grid is 6 scenarios x 3 policies x 6 pool sizes = 108 seeded
cells on the fast tiny-CNN session (the scenario tests' workload, so
one cell simulates in milliseconds and the sweep's cost is the
orchestration itself).  Scenarios span the whole algebra: baseline,
legacy kill/restore, a windowed kill, a degraded shard, a correlated
outage and a seeded straggler pulse train.

Checked claims:

* **worker processes change the schedule, not the result** — the
  108-cell grid's aggregate JSON at ``jobs=4`` is *byte-identical* to
  the ``jobs=1`` run (the determinism contract CI relies on; on this
  millisecond-scale workload the fork overhead dominates, so the
  printed wall times are a cost report, not a race);
* **nothing is lost under chaos** — every one of the 108 cells
  accounts for every issued request: served + shed + unserved ==
  issued;
* **chaos is visible in the aggregates** — the unperturbed baseline's
  SLO attainment is at least that of the worst chaos scenario, and
  every per-scenario survival curve is monotone in the multiple.
"""

from repro.arch.params import AcceleratorConfig
from repro.compiler import CompilerOptions
from repro.fpga import get_device
from repro.ir import zoo
from repro.pipeline import PipelineSession
from repro.serving import SweepGrid, SweepOptions, run_sweep

SCENARIOS = (
    "none",
    "kill:shard0@0.002,restore@0.01",
    "kill:shard0@0.002..0.01",
    "degrade:shard0@0.001..0.01x8",
    "outage:shard0+shard1@0.002..0.008",
    "stragglers:shard0+shard1@0..0.015x6*3",
)
POLICIES = ("round-robin", "least-loaded", "shortest-latency")
POOLS = (2, 3, 4, 5, 6, 8)
REQUESTS = 24
SEED = 2020


def make_session():
    device = get_device("vu9p")
    cfg = AcceleratorConfig(
        pi=4, po=4, pt=4, instances=1, frequency_mhz=100.0,
        input_buffer_vecs=4096, weight_buffer_vecs=2048,
        output_buffer_vecs=2048,
    )
    return PipelineSession(
        zoo.tiny_cnn(input_size=16, channels=8),
        device,
        cfg=cfg,
        compiler_options=CompilerOptions(quantize=False, pack_data=False),
    )


def test_chaos_sweep_process_matches_serial(benchmark, once, capsys):
    session = make_session()
    grid = SweepGrid(SCENARIOS, POLICIES, POOLS)
    assert len(grid) == 108
    serial = run_sweep(
        session, grid, SweepOptions(requests=REQUESTS, jobs=1), seed=SEED
    )
    process = once(
        benchmark, run_sweep, session, grid,
        SweepOptions(requests=REQUESTS, jobs=4), seed=SEED,
    )

    assert serial.to_json() == process.to_json(), (
        "process sweep diverged from the serial oracle"
    )

    for cell in serial.cells:
        assert (
            cell["served"] + cell["shed"] + cell["unserved"]
            == cell["issued"]
        ), f"cell {cell['cell']} lost requests: {cell}"

    per = serial.per_scenario
    baseline = per["none"]["attainment"]
    worst = min(stats["attainment"] for stats in per.values())
    assert baseline >= worst
    for stats in per.values():
        curve = [stats["survival"][key] for key in ("1x", "2x", "4x", "8x")]
        assert curve == sorted(curve, reverse=True)

    with capsys.disabled():
        print()
        print(serial.describe())
        print(f"  jobs=1 {serial.wall_seconds:.2f} s vs "
              f"jobs=4 {process.wall_seconds:.2f} s "
              f"for {len(grid)} cells")
