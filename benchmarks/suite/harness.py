"""Measurement core: spans, operations, counters and the metric tables.

A workload is a ``setup(seed, work_dir) -> state`` function and an
``iterate(rec, state)`` function (see ``workloads.py``).  :func:`measure`
sets the workload up :data:`SETUP_REPEATS` times, then repeats
``iterate`` until the run's time is up.  Inside ``iterate`` the workload
wraps every public call of the program in :meth:`Recorder.span` (named
after the layer it enters) and every call plus its checks in
:meth:`Recorder.op` (counted as attempted, and as failed when it raises).

Spans are recorded only in a traced run; the untraced runs that give the
end-to-end metrics pay for nothing but the ``with`` statements.  A
span's self time is its duration minus that of its children; the
``iteration`` span's self time is what no named span covers.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Root span of one timed iteration.
ITERATION = "iteration"

#: Spans the workloads open around public calls.  Each becomes the
#: per-layer metric ``<name>_s``: mean self time per iteration.
LAYER_SPANS = (
    "pipeline.session_open",
    "dse.explore_hardware",
    "dse.run_dse",
    "pipeline.store.flush",
    "runtime.generate_parameters",
    "compiler.compile_network",
    "sim.simulate",
    "serving.trace_load",
    "serving.pool_build",
    "serving.traffic",
    "serving.run",
    "serving.report",
    "serving.run_sweep",
    "planning.plan_capacity",
    "bench.checks",
)

#: Quantities summed over the timed iterations.
COUNTERS = (
    "dse.evaluated",
    "dse.pruned",
    "dse.considered",
    "cache.hits",
    "cache.lookups",
    "serving.served",
    "serving.events",
    "serving.shed",
    "serving.admission_shed",
    "serving.rerouted",
    "planning.tier_a_s",
    "planning.tier_b_s",
)

#: The devices of the paper's VGG16 case study.
PAPER_DEVICES = ("vu9p", "pynq-z1")

#: VGG16's compute layers, in network order.
VGG16_LAYERS = (
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2",
    "conv3_3", "conv4_1", "conv4_2", "conv4_3", "conv5_1", "conv5_2",
    "conv5_3", "fc6", "fc7", "fc8",
)

#: Values a workload sets once per iteration (last value reported).
#: Workloads that never set one report 0.
GAUGES = (
    "pipeline.store.bytes",
    "pipeline.store.segments",
    *(f"sim.cycles.{device}" for device in PAPER_DEVICES),
    *(f"sim.instructions.{device}" for device in PAPER_DEVICES),
    *(f"estimator.est_error_pct.{device}" for device in PAPER_DEVICES),
    *(f"sim.paper_gops_error_pct.{device}" for device in PAPER_DEVICES),
    *(
        f"estimator.layer_error_pct.{device}.{layer}"
        for device in PAPER_DEVICES
        for layer in VGG16_LAYERS
    ),
)

def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


class Recorder:
    """One run's spans, operation outcomes, counters and output digest."""

    def __init__(self, trace: bool):
        self.trace = trace
        #: ``[name, start, end, parent index, iteration]`` per span.
        self.spans: list = []
        self._open: list = []
        #: ``None`` during set-up; the iteration index while timed.
        self.iteration = None
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.gauges = dict.fromkeys(GAUGES, 0.0)
        #: ``(label, start)`` of each operation of the current iteration.
        self.marks: list = []
        self.digest = None
        self._hash = None

    @contextmanager
    def span(self, name: str):
        if name not in LAYER_SPANS and name != ITERATION:
            raise KeyError(f"undeclared span {name!r}")
        if not self.trace:
            yield
            return
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.iteration]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def op(self, label: str):
        """One public call plus its checks; a raise counts as failed.

        ``label`` names the operation within an iteration, so it must
        be unique there: :func:`measure` times each label separately.
        """
        self.attempted += 1
        self.marks.append((label, time.perf_counter()))
        try:
            yield
        except Exception as exc:  # keep measuring; report the failure
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def count(self, name: str, value: float) -> None:
        if name not in self.counters:
            raise KeyError(f"undeclared counter {name!r}")
        if self.iteration is not None:
            self.counters[name] += value

    def gauge(self, name: str, value: float) -> None:
        if name not in self.gauges:
            raise KeyError(f"undeclared gauge {name!r}")
        self.gauges[name] = value

    def output(self, label: str, payload_digest: str) -> None:
        """Fold one simulated output into this iteration's digest."""
        self._hash.update(f"{label}={payload_digest};".encode())

    def begin_iteration(self, index: int) -> None:
        self.iteration = index
        self.marks = []
        self._hash = hashlib.sha256()

    def end_iteration(self) -> None:
        """Every iteration runs the same inputs, so its outputs must
        hash like the first iteration's."""
        value = self._hash.hexdigest()
        with self.op("output digest"):
            if self.digest is None:
                self.digest = value
            elif value != self.digest:
                raise RuntimeError(
                    f"iteration {self.iteration} output digest "
                    f"{value[:12]} != first iteration's {self.digest[:12]}"
                )

    def self_times(self) -> dict:
        """Seconds of self time per span name, timed iterations only."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict = {}
        for index, (name, start, end, _, iteration) in enumerate(self.spans):
            if iteration is not None:
                own = end - start - children[index]
                totals[name] = totals.get(name, 0.0) + own
        return totals

    def span_rows(self) -> list:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "iteration": iteration}
            for name, start, end, parent, iteration in self.spans
        ]


class Run:
    """What :func:`measure` observed in one run of one workload.

    ``op_s`` maps each operation label to its durations, one per
    iteration.  An operation's duration runs from its start to the next
    operation's start (the first also covers the iteration's lead-in,
    the last its tail), so they add up to the iteration exactly.
    """

    def __init__(self, rec, import_s, setup_s, iteration_s, op_s, cpu):
        self.rec = rec
        self.import_s = import_s
        self.setup_s = setup_s
        self.iteration_s = iteration_s
        self.op_s = op_s
        self.cpu_user_s, self.cpu_sys_s = cpu
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    @property
    def wall_s(self) -> float:
        """Seconds of one typical iteration: the sum over operations of
        each one's median duration.  Host noise comes in bursts shorter
        than most operations, so per-operation medians drop it where a
        median of whole iterations cannot."""
        return sum(statistics.median(times) for times in self.op_s.values())

    def end_to_end(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": self.import_s + statistics.median(self.setup_s),
        }

    def per_layer(self) -> dict:
        return per_layer_metrics(
            self.rec, self.iteration_s, self.wall_s,
            self.cpu_user_s, self.cpu_sys_s,
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(rec, iteration_s, wall_s, cpu_user_s,
                      cpu_sys_s) -> dict:
    """Every per-layer metric, per timed iteration where it is a total."""
    n = len(iteration_s)
    own = rec.self_times()
    counters = rec.counters
    run_s = own.get("serving.run", 0.0)
    metrics = {f"{name}_s": own.get(name, 0.0) / n for name in LAYER_SPANS}
    metrics.update({
        "bench.unattributed_s": own.get(ITERATION, 0.0) / n,
        "bench.span_coverage": (
            1.0 - own.get(ITERATION, 0.0) / sum(iteration_s)
            if rec.trace else 0.0
        ),
        "bench.traced_wall_s": wall_s,
        "process.cpu_user_s": cpu_user_s / n,
        "process.cpu_sys_s": cpu_sys_s / n,
        "dse.candidates_evaluated": counters["dse.evaluated"] / n,
        "dse.prune_ratio": _ratio(
            counters["dse.pruned"], counters["dse.considered"]
        ),
        "pipeline.cache.hit_rate": _ratio(
            counters["cache.hits"], counters["cache.lookups"]
        ),
        "serving.requests_per_s": _ratio(counters["serving.served"], run_s),
        "serving.events_per_s": _ratio(counters["serving.events"], run_s),
        "serving.shed": counters["serving.shed"] / n,
        "serving.admission_shed": counters["serving.admission_shed"] / n,
        "serving.rerouted": counters["serving.rerouted"] / n,
        "planning.tier_a_s": counters["planning.tier_a_s"] / n,
        "planning.tier_b_s": counters["planning.tier_b_s"] / n,
    })
    metrics.update(rec.gauges)
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool,
            work_dir: Path, import_s: float) -> Run:
    """Set ``workload`` up, then time whole iterations for ``seconds``."""
    setup, iterate = workload
    rec = Recorder(trace)
    setup_s = []
    state = None
    for attempt in range(SETUP_REPEATS):
        state = None  # never hold two set-ups at once
        start = time.perf_counter()
        state = setup(seed, work_dir / f"setup{attempt}")
        setup_s.append(time.perf_counter() - start)
    before = resource.getrusage(resource.RUSAGE_SELF)
    iteration_s = []
    op_s: dict = {}
    deadline = time.perf_counter() + seconds
    while not iteration_s or time.perf_counter() < deadline:
        start = time.perf_counter()
        rec.begin_iteration(len(iteration_s))
        with rec.span(ITERATION):
            iterate(rec, state)
            rec.end_iteration()
        end = time.perf_counter()
        iteration_s.append(end - start)
        bounds = [start] + [mark for _, mark in rec.marks[1:]] + [end]
        for (label, _), begin, finish in zip(rec.marks, bounds, bounds[1:]):
            op_s.setdefault(label, []).append(finish - begin)
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime)
    return Run(rec, import_s, setup_s, iteration_s, op_s, cpu)


def result_line(run: Run, spec: dict, trace: bool) -> dict:
    """The run's one-line JSON result: exactly the metrics ``spec``
    lists for this mode, each with its unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = run.per_layer() if trace else run.end_to_end()
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(values):
        raise KeyError(
            "harness metrics and BENCHMARK.json disagree: "
            f"{sorted(set(names) ^ set(values))}"
        )
    return {
        "correct": run.rec.failed == 0,
        "attempted": run.rec.attempted,
        "failed": run.rec.failed,
        "metrics": {
            entry["name"]: {
                "value": values[entry["name"]], "unit": entry["unit"],
            }
            for entry in declared
        },
    }


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
