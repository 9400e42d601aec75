"""Correctness checks the benchmark applies to every operation.

Each check raises :class:`CheckFailed` when an output is wrong; the
harness counts that operation as failed, so ``failed / attempted`` is
the benchmark's error rate.  The checks read only public results
(selections, reports, plans), never internals of the program.
"""

from __future__ import annotations

import hashlib
import json

#: The VGG16 design points the paper reports (Section 6.1).
PAPER_DESIGNS = {
    "vu9p": {"pi": 4, "po": 4, "pt": 6, "instances": 6},
    "pynq-z1": {"pi": 4, "po": 4, "pt": 4, "instances": 1},
}

#: Host-time fields of a ``ServingReport.to_dict()``; everything else in
#: the report is simulated and enters the output digest.
SERVING_WALL_KEYS = (
    "wall_seconds",
    "events_per_second",
    "replay_requests_per_second",
)

#: Host-time fields of a ``ProvisioningPlan.to_dict()``.
PLAN_WALL_KEYS = ("timings", "plans_per_second")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_design_point(device: str, cfg) -> None:
    """The VGG16 selection on ``device`` is the paper's design."""
    expected = PAPER_DESIGNS[device]
    got = {key: getattr(cfg, key) for key in expected}
    if got != expected:
        raise CheckFailed(
            f"VGG16 on {device}: selected {got}, paper chose {expected}"
        )


def selection(result) -> tuple:
    """The parts of a ``DseResult`` a re-run must reproduce exactly."""
    return (result.cfg, result.mapping, result.estimate)


def check_same_selection(label: str, reference: tuple, got: tuple) -> None:
    """``got`` (cfg, mapping, estimate) equals the reference run's."""
    names = ("cfg", "mapping", "estimate")
    for name, want, have in zip(names, reference, got):
        if want != have:
            raise CheckFailed(f"{label}: {name} differs from the first run")


def check_warm_session(label: str, stats, flushed: int) -> None:
    """A session reopened from a full store computes nothing new."""
    if stats.misses or stats.partition_misses or flushed:
        raise CheckFailed(
            f"{label}: {stats.misses} estimate and "
            f"{stats.partition_misses} partition misses, {flushed} "
            "entries flushed from a store that should hold them all"
        )


def check_engine(label: str, expected: str, engine: str) -> None:
    if engine != expected:
        raise CheckFailed(f"{label}: ran on {engine!r}, not {expected!r}")


def check_accounting(label: str, report, issued: int,
                     issued_by_tenant=None) -> None:
    """served + shed + unserved = issued, globally and per tenant."""
    accounted = report.count + report.shed + report.unserved
    if accounted != issued:
        raise CheckFailed(
            f"{label}: served {report.count} + shed {report.shed} + "
            f"unserved {report.unserved} = {accounted} != issued {issued}"
        )
    if not 0 <= report.admission_shed <= report.shed:
        raise CheckFailed(
            f"{label}: admission_shed {report.admission_shed} is not a "
            f"subset of shed {report.shed}"
        )
    if issued_by_tenant is None:
        return
    breakdowns = report.per_tenant()
    for tenant, expected in sorted(issued_by_tenant.items()):
        got = breakdowns[tenant].issued if tenant in breakdowns else 0
        if got != expected:
            raise CheckFailed(
                f"{label}: tenant {tenant} accounts for {got} requests, "
                f"{expected} issued"
            )


def check_sweep(payload: dict, cells: int) -> None:
    """Every cell of a ``SweepReport.to_dict()`` accounts for every
    request it issued, and the totals add the cells up."""
    rows = payload["cells"]
    if len(rows) != cells or payload["cell_count"] != cells:
        raise CheckFailed(
            f"sweep reports {len(rows)} cells "
            f"(cell_count {payload['cell_count']}), expected {cells}"
        )
    for cell in rows:
        accounted = cell["served"] + cell["shed"] + cell["unserved"]
        if accounted != cell["issued"]:
            raise CheckFailed(
                f"sweep cell {cell['cell']} ({cell['scenario']!r}): "
                f"{accounted} accounted != {cell['issued']} issued"
            )
    for key, total in (("issued", "issued"), ("served", "count"),
                       ("shed", "shed"), ("unserved", "unserved")):
        if sum(cell[key] for cell in rows) != payload[total]:
            raise CheckFailed(f"sweep total {total!r} != sum of cells")


def check_plan(payload: dict) -> None:
    """A ``ProvisioningPlan.to_dict()`` whose winner heads the
    finalists and met the SLO in replay."""
    finalists = payload["finalists"]
    if not finalists or payload["winner"] != finalists[0]:
        raise CheckFailed("plan winner is not the first finalist")
    if not (payload["slo_met"] and payload["winner"]["replay"]["slo_ok"]):
        raise CheckFailed(
            f"plan winner {payload['winner']['plan']} missed the SLO "
            "in replay"
        )


def without(payload: dict, keys) -> dict:
    return {key: value for key, value in payload.items() if key not in keys}


def digest(payload) -> str:
    """Stable hash of a JSON-able payload (sorted keys, exact floats)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()
