"""The repository benchmark: one command for every workload and metric.

Three modes:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` runs one
  workload in this process: it sets the workload up three times, times
  whole iterations for S seconds, checks every output and prints, as
  its last line, one JSON object with ``correct``, ``attempted``,
  ``failed`` and the end-to-end (``--trace 0``) or per-layer
  (``--trace 1``) metrics listed in BENCHMARK.json;
* ``run.py [--runs 3] [--seed 2020] [--trace] [--out F]`` runs every
  workload in its own child process, one at a time, interleaved across
  runs (w1..w6, w1..w6, ...), plus one traced run per workload with
  ``--trace``; it prints every metric with its unit and writes a JSON
  result file (and the traced runs' spans next to it);
* ``run.py --compare BASE HEAD`` compares two result files (a
  ``.jsonl`` trajectory stands for its last line) and exits nonzero
  when an end-to-end metric got worse by more than its bound.

Run from the repository root: ``python3 benchmarks/suite/run.py``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

OUT_DIR = harness.SUITE_DIR / "out"
TRAJECTORY = harness.SUITE_DIR / "trajectory.jsonl"
#: A child that runs longer than this is broken, not slow.
CHILD_TIMEOUT_S = 900


# -- one workload in this process -------------------------------------------


def run_workload(args, spec) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread of load, no BLAS pool
    src = harness.REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program to benchmark under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    import_s = time.perf_counter() - _STARTED
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        run = harness.measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work_dir, import_s,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    line = harness.result_line(run, spec, bool(args.trace))
    if args.detail is not None:
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": bool(args.trace),
            "import_s": run.import_s,
            "setup_s": run.setup_s,
            "iteration_s": run.iteration_s,
            "op_s": run.op_s,
            "digest": run.rec.digest,
            "errors": run.rec.errors,
            "end_to_end": run.end_to_end(),
            "spans": run.rec.span_rows(),
        }
        Path(args.detail).write_text(json.dumps(detail))
    for name, metric in line["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload}: {len(run.iteration_s)} iterations, "
          f"{line['attempted']} operations, {line['failed']} failed")
    print(json.dumps(line))
    return 0


# -- every workload in child processes --------------------------------------


def _child(workload, seed, seconds, trace, detail_path):
    """Run one workload in a fresh interpreter; ``(line, detail)`` or
    ``(None, error text)``."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--detail", str(detail_path),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=harness.REPO_ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, (done.stderr or done.stdout)[-2000:]
    detail = json.loads(Path(detail_path).read_text())
    detail_path.unlink()
    return json.loads(lines[-1]), detail


def _meta(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=harness.REPO_ROOT, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def run_suite(args, spec) -> int:
    names = [entry["name"] for entry in spec["workloads"]]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail_path = OUT_DIR / f"detail-{os.getpid()}.json"
    samples = {name: [] for name in names}
    traced = {}
    broken = []

    def child(name, trace, label):
        start = time.perf_counter()
        line, detail = _child(name, args.seed, args.seconds, trace,
                              detail_path)
        took = time.perf_counter() - start
        if line is None:
            broken.append(name)
            print(f"[{label}] {name}: FAILED to run ({took:.1f} s)\n"
                  f"{detail}", file=sys.stderr)
            return None
        print(f"[{label}] {name}: {took:.1f} s, "
              f"{line['attempted']} ops, {line['failed']} failed",
              file=sys.stderr)
        return line, detail

    for index in range(args.runs):
        for name in names:
            outcome = child(name, False, f"run {index + 1}/{args.runs}")
            if outcome is not None:
                samples[name].append(outcome)
    if args.trace:
        for name in names:
            outcome = child(name, True, "traced")
            if outcome is not None:
                traced[name] = outcome
    result = {
        "schema": 1,
        "meta": _meta(args),
        "workloads": {
            name: summarise(spec, samples[name], traced.get(name))
            for name in names
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    if traced:
        spans = [
            {**row, "workload": name, "run": "traced"}
            for name, (_, detail) in traced.items()
            for row in detail["spans"]
        ]
        (out.parent / "spans.json").write_text(json.dumps(spans) + "\n")
    print_result(result)
    print(f"result written to {out}")
    if args.append:
        with TRAJECTORY.open("a") as handle:
            handle.write(json.dumps(result, separators=(",", ":")) + "\n")
        print(f"appended to {TRAJECTORY}")
    failed = any(
        summary["failed"] or not summary["correct"]
        for summary in result["workloads"].values()
    )
    return 1 if broken or failed else 0


def summarise(spec, samples, traced) -> dict:
    """One workload's result: end-to-end medians and quartiles over
    the untraced runs, per-layer values from the traced run."""
    end_to_end = {}
    for entry in spec["end_to_end"]:
        values = [line["metrics"][entry["name"]]["value"]
                  for line, _ in samples]
        if not values:
            continue
        q1, median, q3 = harness.quartiles(values)
        end_to_end[entry["name"]] = {
            "unit": entry["unit"], "better": entry["better"],
            "bound": entry["bound"], "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values,
        }
    attempted = sum(line["attempted"] for line, _ in samples)
    failed = sum(line["failed"] for line, _ in samples)
    digests = sorted({detail["digest"] for _, detail in samples})
    summary = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "correct": bool(samples) and all(
            line["correct"] for line, _ in samples
        ),
        "digest": digests[0] if len(digests) == 1 else digests,
        "errors": [e for _, detail in samples for e in detail["errors"]],
    }
    if traced is not None:
        line, detail = traced
        summary["per_layer"] = {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in line["metrics"].items()
        }
        wall = end_to_end.get("wall_s", {}).get("median")
        traced_wall = detail["end_to_end"]["wall_s"]
        summary["tracing_overhead_s"] = (
            traced_wall - wall if wall is not None else None
        )
        summary["traced_digest"] = detail["digest"]
    return summary


def print_result(result) -> None:
    for name, summary in result["workloads"].items():
        print(f"\n== {name}: {summary['attempted']} operations, "
              f"{summary['failed']} failed "
              f"(error_rate {summary['error_rate']:.4g}); "
              f"digest {str(summary['digest'])[:16]}")
        for metric, row in summary["end_to_end"].items():
            print(f"  {metric:<12} {row['median']:12.6g} {row['unit']:<6}"
                  f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, "
                  f"n={row['n']}]")
        if "per_layer" in summary:
            overhead = summary["tracing_overhead_s"]
            if overhead is not None:
                print(f"  tracing overhead {overhead:+.4f} s per iteration")
            if summary["traced_digest"] != summary["digest"]:
                print("  the traced run's output digest differs!")
            for metric, row in summary["per_layer"].items():
                if row["value"]:
                    print(f"    {metric:<44} {row['value']:12.6g} "
                          f"{row['unit']}")


# -- comparing two results --------------------------------------------------


def load_result(path) -> dict:
    """A result file, or the last line of a ``.jsonl`` trajectory."""
    path = Path(path)
    if path.suffix == ".jsonl":
        lines = [line for line in path.read_text().splitlines()
                 if line.strip()]
        return json.loads(lines[-1])
    return json.loads(path.read_text())


def verdict(base: dict, head: dict, bound: float, better: str) -> tuple:
    """``(delta, spread, verdict)`` of one end-to-end metric.

    ``delta`` is the relative change of the medians, signed so that
    positive means worse.  When either side's quartile spread exceeds
    the bound the medians cannot resolve the bound: the verdict is
    ``unresolved`` unless every run of one side beats every run of the
    other by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (head["median"] - base["median"]) / base["median"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (base, head)
    )
    if spread > bound:
        worst_head = max(sign * value for value in head["values"])
        best_head = min(sign * value for value in head["values"])
        worst_base = max(sign * value for value in base["values"])
        best_base = min(sign * value for value in base["values"])
        if worst_head < best_base and delta < -bound:
            return delta, spread, "better"
        if best_head > worst_base and delta > bound:
            return delta, spread, "worse"
        return delta, spread, "unresolved"
    if delta > bound:
        return delta, spread, "worse"
    if delta < -bound:
        return delta, spread, "better"
    return delta, spread, "same"


def compare(base: dict, head: dict) -> int:
    print(f"base {base['meta']['commit'][:12]} ({base['meta']['date']}), "
          f"head {head['meta']['commit'][:12]} ({head['meta']['date']})")
    print(f"{'workload':<14} {'metric':<12} {'base':>10} {'head':>10} "
          f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    worse = 0
    layer_rows = []
    for name, head_summary in head["workloads"].items():
        base_summary = base["workloads"].get(name)
        if base_summary is None:
            print(f"{name:<14} (new workload, nothing to compare)")
            continue
        for metric, head_row in head_summary["end_to_end"].items():
            base_row = base_summary["end_to_end"].get(metric)
            if base_row is None:
                continue
            delta, spread, word = verdict(
                base_row, head_row, head_row["bound"], head_row["better"]
            )
            worse += word == "worse"
            print(f"{name:<14} {metric:<12} {base_row['median']:10.4g} "
                  f"{head_row['median']:10.4g} {delta * 100:+7.1f}% "
                  f"{spread * 100:6.1f}% {head_row['bound'] * 100:5.0f}%"
                  f"  {word}")
        if base_summary["digest"] != head_summary["digest"]:
            print(f"{name:<14} output digest CHANGED (flagged, not failed)")
        base_layers = base_summary.get("per_layer", {})
        for metric, row in head_summary.get("per_layer", {}).items():
            old = base_layers.get(metric, {}).get("value")
            new = row["value"]
            if old is None or old == new:
                continue
            change = (new - old) / old if old else float("inf")
            layer_rows.append((abs(change), name, metric, old, new, change))
    if layer_rows:
        print("\nper-layer changes (largest first):")
        for _, name, metric, old, new, change in sorted(
            layer_rows, key=lambda row: (-row[0], row[1], row[2])
        ):
            print(f"  {name:<14} {metric:<44} {old:11.4g} -> {new:11.4g} "
                  f"({change * 100:+.1f}%)")
    return 1 if worse else 0


# -- command line ------------------------------------------------------------


def build_parser(spec) -> argparse.ArgumentParser:
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="HybridDNN reproduction benchmark suite"
    )
    parser.add_argument("--workload", choices=names,
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--detail", default=None,
                        help="write the run's timings, digest and spans "
                             "here (used by the suite mode)")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs of every workload")
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"))
    parser.add_argument("--append", action="store_true",
                        help="append the result to trajectory.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    return parser


def main(argv=None) -> int:
    spec = harness.load_spec()
    args = build_parser(spec).parse_args(argv)
    if args.compare:
        return compare(*(load_result(path) for path in args.compare))
    if args.workload is not None:
        return run_workload(args, spec)
    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 2
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
