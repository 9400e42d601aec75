"""Tenancy: named traffic classes with weights, SLOs and admission caps.

Millions of users are not one traffic class.  A :class:`TenantSpec`
names one class — an interactive product surface, a batch re-indexing
job — and carries the three levers the serving layer pulls apart per
tenant:

* **weight** — the tenant's share of the pool under the
  ``weighted-fair`` scheduling policy (see
  :class:`~repro.serving.scheduler.WeightedFair`): shards are
  apportioned to tenants in proportion to weight, so a flooding tenant
  saturates *its* share instead of every queue;
* **p99 SLO** (optional) — a per-tenant latency objective the
  :class:`~repro.serving.slo.SloController` watches in its own
  observation window, shedding that tenant's dispatches while *its*
  tail is breached — the batch tier degrades, the interactive tier
  keeps its SLO;
* **admission cap** (optional) — a bound on the tenant's outstanding
  (admitted but not yet completed) requests.  Requests beyond the cap
  are dropped *at arrival*, before they ever occupy a queue — a
  first-class shed reason, counted separately from SLO sheds in
  :attr:`~repro.serving.metrics.ServingReport.admission_shed`.

A :class:`TenantSet` registers the specs for one workload (see
:class:`~repro.serving.workload.WorkloadSpec`).  Every request carries
a ``tenant`` tag; untagged traffic belongs to :data:`DEFAULT_TENANT`,
and a set holding only the default spec with no SLO and no cap is
*trivial* — trivial workloads behave (and report) exactly as the
pre-tenancy serving layer did, which is what keeps single-tenant runs
byte-identical across PRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import math

from repro.errors import ServingError
from repro.numeric import left_sum

#: The tenant every untagged request belongs to.
DEFAULT_TENANT = "default"

#: Batch tiers a tenant may belong to.  The tier is the *mixing* key of
#: the tenant-aware batcher: tenants of the same tier may share a
#: batch, tenants of different tiers never do (an interactive request
#: must not wait out a bulk tenant's batch assembly).
TENANT_TIERS = ("interactive", "batch")


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class: identity, share, objective, admission bound."""

    name: str
    weight: float = 1.0
    tier: str = "interactive"
    p99_slo_s: Optional[float] = None
    max_outstanding: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ServingError("tenant name must be non-empty")
        if any(sep in self.name for sep in ",;=:"):
            raise ServingError(
                f"tenant name {self.name!r} may not contain "
                "',', ';', ':' or '=' (reserved by the spec grammar)"
            )
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ServingError(
                f"tenant {self.name}: weight must be positive and "
                f"finite, got {self.weight}"
            )
        if self.tier not in TENANT_TIERS:
            raise ServingError(
                f"tenant {self.name}: unknown tier {self.tier!r}; "
                f"expected one of {TENANT_TIERS}"
            )
        if self.p99_slo_s is not None and (
            not math.isfinite(self.p99_slo_s) or self.p99_slo_s <= 0
        ):
            raise ServingError(
                f"tenant {self.name}: p99 SLO must be positive and "
                f"finite, got {self.p99_slo_s}"
            )
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ServingError(
                f"tenant {self.name}: admission cap must be >= 1, "
                f"got {self.max_outstanding}"
            )

    def describe(self) -> str:
        parts = [f"weight {self.weight:g}", self.tier]
        if self.p99_slo_s is not None:
            parts.append(f"p99 <= {self.p99_slo_s * 1e3:.2f} ms")
        if self.max_outstanding is not None:
            parts.append(f"cap {self.max_outstanding}")
        return f"{self.name}: " + ", ".join(parts)


class TenantSet:
    """The registered tenants of one workload, in registration order.

    Registration order is semantic: the ``weighted-fair`` policy
    apportions pool shards over tenants *in this order*, so two runs
    with the same specs in the same order are deterministic.
    """

    def __init__(self, tenants: Sequence[TenantSpec]):
        specs = list(tenants)
        if not specs:
            raise ServingError("a tenant set needs at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate tenant names: {names}")
        self._specs: Dict[str, TenantSpec] = {
            spec.name: spec for spec in specs
        }

    @classmethod
    def default(cls) -> "TenantSet":
        """The trivial set: one default tenant, no SLO, no cap."""
        return cls([TenantSpec(DEFAULT_TENANT)])

    # -- lookup -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[TenantSpec]:
        return iter(self._specs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def get(self, name: str) -> Optional[TenantSpec]:
        return self._specs.get(name)

    def spec_for(self, name: str) -> TenantSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ServingError(
                f"unknown tenant {name!r}; registered tenants: "
                f"{sorted(self._specs)}"
            ) from None

    def tier_of(self, name: str) -> str:
        return self.spec_for(name).tier

    @cached_property
    def total_weight(self) -> float:
        """The tenants' summed weight (the set is fixed at construction,
        so the weighted-fair policy's per-dispatch reads fold once)."""
        return left_sum([spec.weight for spec in self])

    def slo_targets(self) -> Dict[str, float]:
        """``name -> p99 target`` for the tenants that declare one."""
        return {
            spec.name: spec.p99_slo_s
            for spec in self
            if spec.p99_slo_s is not None
        }

    def admission_caps(self) -> Dict[str, int]:
        """``name -> max outstanding`` for the tenants that declare one."""
        return {
            spec.name: spec.max_outstanding
            for spec in self
            if spec.max_outstanding is not None
        }

    @property
    def trivial(self) -> bool:
        """True when tenancy changes nothing: exactly the default
        tenant, no SLO, no admission cap.  Trivial sets keep the
        pre-tenancy fast paths (and reports) intact."""
        if len(self._specs) != 1:
            return False
        spec = next(iter(self))
        return (
            spec.name == DEFAULT_TENANT
            and spec.p99_slo_s is None
            and spec.max_outstanding is None
        )

    def describe(self) -> str:
        return "; ".join(spec.describe() for spec in self)


#: Keys :func:`parse_tenant` understands after the tenant name.
TENANT_SPEC_KEYS = ("weight", "tier", "p99", "cap")


def parse_tenant(spec: str) -> TenantSpec:
    """One ``--tenant`` CLI spec::

        NAME[:weight=W][:tier=interactive|batch][:p99=MS][:cap=N]

    e.g. ``interactive:weight=3:tier=interactive:p99=5:cap=64`` or the
    minimal ``bulk:tier=batch``.  ``p99`` is milliseconds, matching
    ``--slo-p99``.
    """
    head, _, tail = spec.partition(":")
    name = head.strip()
    fields: Dict[str, object] = {}
    if tail:
        for part in tail.split(":"):
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in TENANT_SPEC_KEYS:
                raise ServingError(
                    f"tenant spec {spec!r}: expected "
                    f"key=value with key in {TENANT_SPEC_KEYS}, "
                    f"got {part!r}"
                )
            if key in fields:
                raise ServingError(
                    f"tenant spec {spec!r}: duplicate key {key!r}"
                )
            if key == "tier":
                fields["tier"] = raw.strip()
                continue
            try:
                value = float(raw) if key != "cap" else int(raw)
            except ValueError:
                raise ServingError(
                    f"tenant spec {spec!r}: bad {key} value {raw!r}"
                ) from None
            if key == "weight":
                fields["weight"] = value
            elif key == "p99":
                fields["p99_slo_s"] = value * 1e-3
            else:
                fields["max_outstanding"] = value
    return TenantSpec(name=name, **fields)


def parse_tenants(specs: Sequence[str]) -> TenantSet:
    """A :class:`TenantSet` from repeated ``--tenant`` specs."""
    return TenantSet([parse_tenant(spec) for spec in specs])


def assign_tenants(requests: Sequence, tenants: TenantSet) -> List:
    """Tag an untagged request stream with tenants, weight-proportional.

    Deterministic largest-remainder interleave: request ``i`` goes to
    the tenant whose served share lags its weight share the most (ties
    break on registration order), so every prefix of the stream splits
    as close to the weight ratio as integer counts allow — no RNG, no
    dependence on arrival values.  Requests that already carry a
    non-default tag keep it.
    """
    specs = list(tenants)
    total = tenants.total_weight
    issued = [0] * len(specs)
    tagged = []
    for position, request in enumerate(requests):
        if request.tenant != DEFAULT_TENANT:
            tagged.append(request)
            continue
        deficit = [
            spec.weight / total * (position + 1) - issued[i]
            for i, spec in enumerate(specs)
        ]
        chosen = max(range(len(specs)), key=lambda i: (deficit[i], -i))
        issued[chosen] += 1
        tagged.append(
            type(request)(
                index=request.index,
                arrival=request.arrival,
                tenant=specs[chosen].name,
            )
        )
    return tagged


def split_clients(total: int, tenants: TenantSet) -> List[Tuple[str, int]]:
    """Apportion ``total`` closed-loop clients over tenants by weight.

    Largest-remainder: every tenant gets ``floor(total * w/W)`` clients
    plus the leftovers in descending-remainder order (registration
    order breaks ties), and at least the apportionment allows — a
    tenant may end up with zero clients when ``total`` is small.
    """
    if total < 1:
        raise ServingError(f"client count must be >= 1, got {total}")
    specs = list(tenants)
    weight = tenants.total_weight
    quotas = [total * spec.weight / weight for spec in specs]
    counts = [int(quota) for quota in quotas]
    remainders = sorted(
        range(len(specs)),
        key=lambda i: (-(quotas[i] - counts[i]), i),
    )
    for i in remainders[: total - sum(counts)]:
        counts[i] += 1
    return [
        (spec.name, count)
        for spec, count in zip(specs, counts)
        if count > 0
    ]
