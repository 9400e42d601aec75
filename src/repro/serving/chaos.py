"""Chaos scenarios: a composable algebra over typed kernel events.

The serving layer's one scenario type.  A :class:`ChaosScenario` is an
ordered list of perturbation ops, each of which **compiles** to the
typed :class:`~repro.serving.events.EventKernel` events the rest of
the serving layer already reacts to — so the scheduler, the
:class:`~repro.serving.slo.SloController` and the
:class:`~repro.serving.autoscaler.AutoscalerController` handle every
construct with zero changes to their contracts.  A scenario reaches a
run through :attr:`~repro.serving.workload.WorkloadSpec.scenario`.

Ops and the events they compile to:

* :class:`Kill` / :class:`Restore` — take a shard down and bring it
  back (:class:`~repro.serving.events.ShardDown` /
  :class:`~repro.serving.events.ShardUp`).  The dying shard's
  in-flight requests are re-queued with their original arrival, so
  their latency accounts the lost work; a restored shard rejoins with
  a fresh timeline.  The kill/restore grammar's compiled events and
  reports are pinned by golden tests.
* :class:`Outage` — a *correlated* failure: several shards down (and
  optionally back up) at the same instants, the case that separates a
  replicated pool from an actually fault-tolerant one.
* :class:`Degrade` — a straggler: the shard stays up but every batch
  dispatched in the window takes ``factor`` times its healthy service
  time (:class:`~repro.serving.events.ShardDegrade` /
  :class:`~repro.serving.events.ShardRestoreRate`).  In-flight batches
  keep their completion instants; latency-aware policies route around
  the straggler because the shard's scheduling views scale too.
* :class:`Stragglers` — delayed/reordered completions as *seeded*
  degrade pulses: ``pulses`` disjoint slow windows drawn from a
  ``numpy`` generator, hitting a random shard each time.  Same seed ⇒
  the same pulses, byte for byte.

The CLI grammar (``repro serve --scenario`` / ``repro sweep
--scenarios``) is a comma-separated list of ops; ``<t>`` are virtual
seconds and ``<t1>..<t2>`` a closed-open window::

    kill:<shard>@<t>                        down, never restored
    kill:<shard>@<t1>..<t2>                 down for a window
    restore:<shard>@<t>                     bring <shard> back
    restore@<t>                             shorthand: last killed shard
    degrade:<shard>@<t1>..<t2>x<factor>     straggler window
    degrade:<shard>@<t>x<factor>            straggler, never restored
    outage:<s1>+<s2>@<t1>..<t2>             correlated outage (window
                                            optional: omit ..<t2>)
    stragglers:<s1>+<s2>@<t1>..<t2>x<f>*<n> n seeded degrade pulses

e.g. ``degrade:shard0@0.01..0.05x4,kill:shard1@0.02..0.04`` — shard0
runs 4x slow from 10 ms to 50 ms while shard1 is dead from 20 ms to
40 ms.  The bare ``restore@<t>`` shorthand needs a *single* preceding
open-ended kill: with none, or after a multi-shard ``outage``, the
reference is undefined and parsing fails with a clear
:class:`~repro.errors.ServingError` instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.serving.events import (
    Event,
    EventKernel,
    ShardDegrade,
    ShardDown,
    ShardRestoreRate,
    ShardUp,
)
from repro.serving.shard import ShardPool

#: Op verbs understood by :meth:`ChaosScenario.parse`.
CHAOS_KINDS = ("kill", "restore", "degrade", "outage", "stragglers")

#: Same-instant, same-priority order the compiler emits: a shard comes
#: back (up / full rate) before a new perturbation starts, so
#: back-to-back windows meeting at one instant nest instead of overlap.
_KIND_RANK = {ShardDown: 0, ShardUp: 1, ShardRestoreRate: 2, ShardDegrade: 3}


def _check_time(label: str, value: float) -> float:
    if not math.isfinite(value) or value < 0:
        raise ServingError(
            f"{label}: time must be finite and >= 0, got {value}"
        )
    return float(value)


def _check_window(label: str, at: float, until: Optional[float]) -> None:
    if until is not None and until <= at:
        raise ServingError(
            f"{label}: window end {until} must follow start {at}"
        )


def _check_shard(label: str, shard: str) -> None:
    if not shard:
        raise ServingError(f"{label} names no shard")


@dataclass(frozen=True)
class Kill:
    """Take ``shard`` down at ``at``; back up at ``until`` if given."""

    shard: str
    at: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _check_shard("kill", self.shard)
        _check_time(f"kill:{self.shard}", self.at)
        if self.until is not None:
            _check_time(f"kill:{self.shard}", self.until)
        _check_window(f"kill:{self.shard}", self.at, self.until)

    def events(self) -> List[Event]:
        out: List[Event] = [ShardDown(time=self.at, shard=self.shard)]
        if self.until is not None:
            out.append(ShardUp(time=self.until, shard=self.shard))
        return out

    def names(self) -> Tuple[str, ...]:
        return (self.shard,)

    def describe(self) -> str:
        if self.until is None:
            return f"kill {self.shard} @ {self.at * 1e3:.1f} ms"
        return (
            f"kill {self.shard} @ {self.at * 1e3:.1f}"
            f"-{self.until * 1e3:.1f} ms"
        )


@dataclass(frozen=True)
class Restore:
    """Bring ``shard`` back at ``at`` (must follow a kill)."""

    shard: str
    at: float

    def __post_init__(self) -> None:
        _check_shard("restore", self.shard)
        _check_time(f"restore:{self.shard}", self.at)

    def events(self) -> List[Event]:
        return [ShardUp(time=self.at, shard=self.shard)]

    def names(self) -> Tuple[str, ...]:
        return (self.shard,)

    def describe(self) -> str:
        return f"restore {self.shard} @ {self.at * 1e3:.1f} ms"


@dataclass(frozen=True)
class Outage:
    """A correlated failure: every shard in ``shards`` goes down at
    ``at`` (and back up at ``until`` if given) — the same instants, so
    the pool loses capacity as one correlated step, not a sequence of
    independent blips."""

    shards: Tuple[str, ...]
    at: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.shards:
            raise ServingError("outage names no shards")
        if len(set(self.shards)) != len(self.shards):
            raise ServingError(
                f"outage lists a shard twice: {list(self.shards)}"
            )
        for shard in self.shards:
            _check_shard("outage", shard)
        _check_time("outage", self.at)
        if self.until is not None:
            _check_time("outage", self.until)
        _check_window("outage", self.at, self.until)

    def events(self) -> List[Event]:
        out: List[Event] = [
            ShardDown(time=self.at, shard=shard) for shard in self.shards
        ]
        if self.until is not None:
            out.extend(
                ShardUp(time=self.until, shard=shard)
                for shard in self.shards
            )
        return out

    def names(self) -> Tuple[str, ...]:
        return self.shards

    def describe(self) -> str:
        span = (
            f"@ {self.at * 1e3:.1f} ms" if self.until is None
            else f"@ {self.at * 1e3:.1f}-{self.until * 1e3:.1f} ms"
        )
        return f"outage {'+'.join(self.shards)} {span}"


@dataclass(frozen=True)
class Degrade:
    """Slow ``shard`` by ``factor`` from ``at`` until ``until`` (or
    forever): a straggler, not a failure — it keeps serving, slowly."""

    shard: str
    factor: float
    at: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _check_shard("degrade", self.shard)
        if not math.isfinite(self.factor) or self.factor < 1.0:
            raise ServingError(
                f"degrade:{self.shard}: factor must be finite and >= 1, "
                f"got {self.factor}"
            )
        _check_time(f"degrade:{self.shard}", self.at)
        if self.until is not None:
            _check_time(f"degrade:{self.shard}", self.until)
        _check_window(f"degrade:{self.shard}", self.at, self.until)

    def events(self) -> List[Event]:
        out: List[Event] = [
            ShardDegrade(time=self.at, shard=self.shard, factor=self.factor)
        ]
        if self.until is not None:
            out.append(ShardRestoreRate(time=self.until, shard=self.shard))
        return out

    def names(self) -> Tuple[str, ...]:
        return (self.shard,)

    def describe(self) -> str:
        span = (
            f"@ {self.at * 1e3:.1f} ms" if self.until is None
            else f"@ {self.at * 1e3:.1f}-{self.until * 1e3:.1f} ms"
        )
        return f"degrade {self.shard} x{self.factor:g} {span}"


@dataclass(frozen=True)
class Stragglers:
    """Delayed/reordered completions as seeded degrade pulses.

    The window ``[start, until)`` is cut into ``pulses`` equal slots;
    each slot gets one slow window — begin drawn in its slot's first
    half, length between 20% and 50% of the slot — on a shard drawn
    from ``shards``.  Windows never overlap (each lives strictly inside
    its slot), so the compiled events always nest, and the generator is
    seeded, so one seed is one exact pulse train.
    """

    shards: Tuple[str, ...]
    factor: float
    start: float
    until: float
    pulses: int = 3
    seed: int = 2020

    def __post_init__(self) -> None:
        if not self.shards:
            raise ServingError("stragglers names no shards")
        if len(set(self.shards)) != len(self.shards):
            raise ServingError(
                f"stragglers lists a shard twice: {list(self.shards)}"
            )
        for shard in self.shards:
            _check_shard("stragglers", shard)
        if not math.isfinite(self.factor) or self.factor < 1.0:
            raise ServingError(
                f"stragglers: factor must be finite and >= 1, "
                f"got {self.factor}"
            )
        _check_time("stragglers", self.start)
        _check_time("stragglers", self.until)
        if self.until <= self.start:
            raise ServingError(
                f"stragglers: window end {self.until} must follow "
                f"start {self.start}"
            )
        if self.pulses < 1:
            raise ServingError(
                f"stragglers: pulses must be >= 1, got {self.pulses}"
            )

    def windows(self) -> List[Tuple[str, float, float]]:
        """The seeded ``(shard, begin, end)`` pulse windows."""
        rng = np.random.default_rng(self.seed)
        slot = (self.until - self.start) / self.pulses
        out = []
        for pulse in range(self.pulses):
            slot_start = self.start + pulse * slot
            begin = slot_start + 0.5 * slot * float(rng.uniform())
            length = slot * (0.2 + 0.3 * float(rng.uniform()))
            shard = self.shards[int(rng.integers(len(self.shards)))]
            out.append((shard, begin, begin + length))
        return out

    def events(self) -> List[Event]:
        out: List[Event] = []
        for shard, begin, end in self.windows():
            out.append(
                ShardDegrade(time=begin, shard=shard, factor=self.factor)
            )
            out.append(ShardRestoreRate(time=end, shard=shard))
        return out

    def names(self) -> Tuple[str, ...]:
        return self.shards

    def describe(self) -> str:
        return (
            f"stragglers {'+'.join(self.shards)} x{self.factor:g} "
            f"@ {self.start * 1e3:.1f}-{self.until * 1e3:.1f} ms "
            f"({self.pulses} pulse(s), seed {self.seed})"
        )


#: Anything :class:`ChaosScenario` accepts as one op.
ChaosOp = (Kill, Restore, Outage, Degrade, Stragglers)


class ChaosScenario:
    """An ordered list of perturbation ops, compiled to kernel events.

    Compilation sorts every op's events into the kernel's global
    ``(time, priority)`` order (ties in the class rank that puts
    restores before new perturbations, then op order) and *validates*
    the composition with a per-shard state machine: kills and restores
    must alternate, degrade windows must nest (no double-degrade, no
    restore-rate without a degrade) and must not straddle a kill — a
    kill wipes the shard, so a degrade window crossing it would end on
    a shard that no longer remembers being slow.  Anything that would
    execute as a silent no-op is a compile error instead.
    """

    def __init__(self, ops: Sequence):
        if not ops:
            raise ServingError("a scenario needs at least one op")
        for op in ops:
            if not isinstance(op, ChaosOp):
                raise ServingError(
                    f"not a scenario op: {op!r} "
                    f"(expected one of {[c.__name__ for c in ChaosOp]})"
                )
        self.ops = list(ops)
        self._events = self._compile()

    # -- compilation ------------------------------------------------------

    def _compile(self) -> List[Event]:
        events: List[Event] = [
            event for op in self.ops for event in op.events()
        ]
        events.sort(
            key=lambda e: (e.time, type(e).priority, _KIND_RANK[type(e)])
        )
        state: Dict[str, str] = {}  # shard -> up | degraded | down
        for event in events:
            shard = event.shard
            current = state.get(shard, "up")
            if isinstance(event, ShardDown):
                if current == "down":
                    raise ServingError(
                        f"scenario kills {shard!r} at {event.time} "
                        "while it is already down"
                    )
                if current == "degraded":
                    raise ServingError(
                        f"scenario kills {shard!r} at {event.time} "
                        "inside a degrade window; end the window first"
                    )
                state[shard] = "down"
            elif isinstance(event, ShardUp):
                if current != "down":
                    raise ServingError(
                        f"scenario restores {shard!r} at {event.time} "
                        "before any kill takes it down"
                    )
                state[shard] = "up"
            elif isinstance(event, ShardDegrade):
                if current == "down":
                    raise ServingError(
                        f"scenario degrades {shard!r} at {event.time} "
                        "while it is down"
                    )
                if current == "degraded":
                    raise ServingError(
                        f"scenario degrades {shard!r} at {event.time} "
                        "while it is already degraded; degrade windows "
                        "must not overlap"
                    )
                state[shard] = "degraded"
            else:  # ShardRestoreRate
                if current != "degraded":
                    raise ServingError(
                        f"scenario restores the rate of {shard!r} at "
                        f"{event.time} outside any degrade window"
                    )
                state[shard] = "up"
        return events

    def compile(self) -> List[Event]:
        """The validated event sequence, in push (= pop-tie) order."""
        return list(self._events)

    def names(self) -> List[str]:
        """Every shard the scenario touches, sorted."""
        return sorted({name for op in self.ops for name in op.names()})

    def prime(self, kernel: EventKernel, pool: ShardPool) -> None:
        """Validate against ``pool`` and push the compiled events."""
        names = {shard.name for shard in pool}
        for event in self._events:
            if event.shard not in names:
                raise ServingError(
                    f"scenario names unknown shard {event.shard!r}; "
                    f"pool has {sorted(names)}"
                )
        for event in self._events:
            kernel.push(event)

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 2020) -> "ChaosScenario":
        """Parse the CLI grammar (see module docstring).

        ``seed`` feeds :class:`Stragglers` ops, so one spec string plus
        one seed is one exact scenario.
        """
        ops: List = []
        # The bare restore@<t> shorthand resolves against the one shard
        # an open-ended kill left down; None means no such shard, and
        # the ambiguous sentinel means a multi-shard outage is the most
        # recent kill — both are errors, not guesses.
        ambiguous = object()
        last_killed = None
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            verb, subject, at, until, factor, pulses = _parse_token(token)
            if verb == "kill":
                _require(token, subject=subject, factor=factor,
                         pulses=pulses, want_factor=False)
                if "+" in subject:
                    raise ServingError(
                        f"scenario op {token!r}: kill takes one shard; "
                        "spell a correlated failure outage:<s1>+<s2>@..."
                    )
                ops.append(Kill(subject, at, until))
                last_killed = subject if until is None else None
            elif verb == "restore":
                _require(token, factor=factor, pulses=pulses,
                         want_factor=False)
                if until is not None:
                    raise ServingError(
                        f"scenario op {token!r}: restore takes one "
                        "instant, not a window"
                    )
                if not subject:
                    if last_killed is None:
                        raise ServingError(
                            f"scenario op {token!r}: restore@<t> needs "
                            "a preceding open-ended kill to name the "
                            "shard"
                        )
                    if last_killed is ambiguous:
                        raise ServingError(
                            f"scenario op {token!r}: restore@<t> after "
                            "a multi-shard outage is ambiguous; name "
                            "the shard (restore:<shard>@<t>)"
                        )
                    subject = last_killed
                ops.append(Restore(subject, at))
                if subject == last_killed:
                    last_killed = None
            elif verb == "degrade":
                _require(token, subject=subject, factor=factor,
                         pulses=pulses, want_factor=True)
                if "+" in subject:
                    raise ServingError(
                        f"scenario op {token!r}: degrade takes one "
                        "shard; spell multi-shard slowdowns as "
                        "stragglers:<s1>+<s2>@... or separate ops"
                    )
                ops.append(Degrade(subject, factor, at, until))
            elif verb == "outage":
                _require(token, subject=subject, factor=factor,
                         pulses=pulses, want_factor=False)
                ops.append(Outage(tuple(subject.split("+")), at, until))
                if until is None:
                    last_killed = ambiguous
            elif verb == "stragglers":
                if factor is None:
                    raise ServingError(
                        f"scenario op {token!r}: stragglers needs a "
                        "factor (stragglers:<shards>@<t1>..<t2>x<f>)"
                    )
                if not subject:
                    raise ServingError(
                        f"scenario op {token!r} names no shard"
                    )
                if until is None:
                    raise ServingError(
                        f"scenario op {token!r}: stragglers needs a "
                        "window (<t1>..<t2>)"
                    )
                ops.append(Stragglers(
                    tuple(subject.split("+")), factor, at, until,
                    pulses=pulses if pulses is not None else 3,
                    seed=seed,
                ))
            else:
                raise ServingError(
                    f"scenario op {token!r}: unknown verb {verb!r}; "
                    f"expected one of {CHAOS_KINDS}"
                )
        if not ops:
            raise ServingError(f"empty scenario spec {spec!r}")
        return cls(ops)

    # -- reporting --------------------------------------------------------

    def spans(self) -> List[Tuple[str, float, float]]:
        """Down intervals per shard as ``(shard, down_at, up_at)``
        (``inf`` when never restored) — for reporting."""
        return self._paired(ShardDown, ShardUp)

    def degraded_spans(self) -> List[Tuple[str, float, float]]:
        """Degrade windows per shard as ``(shard, from, to)``
        (``inf`` when never restored to full rate)."""
        return self._paired(ShardDegrade, ShardRestoreRate)

    def _paired(self, open_kind, close_kind) -> List[
            Tuple[str, float, float]]:
        out: List[Tuple[str, float, float]] = []
        open_at: Dict[str, float] = {}
        for event in self._events:
            if isinstance(event, open_kind):
                open_at.setdefault(event.shard, event.time)
            elif isinstance(event, close_kind) and event.shard in open_at:
                out.append((event.shard, open_at.pop(event.shard),
                            event.time))
        for shard, at in sorted(open_at.items()):
            out.append((shard, at, float("inf")))
        return out

    def describe(self) -> str:
        return ", ".join(op.describe() for op in self.ops)


def _parse_token(token: str):
    """Split one op token into (verb, subject, at, until, factor,
    pulses) — the purely syntactic half of :meth:`ChaosScenario.parse`."""
    head, sep, tail = token.partition("@")
    if not sep:
        raise ServingError(
            f"scenario op {token!r}: expected "
            "<verb>[:<shards>]@<t>[..<t2>][x<factor>][*<pulses>]"
        )
    verb, _, subject = head.partition(":")
    pulses = None
    if "*" in tail:
        tail, _, raw = tail.rpartition("*")
        try:
            pulses = int(raw)
        except ValueError:
            raise ServingError(
                f"scenario op {token!r}: bad pulse count {raw!r}"
            ) from None
    factor = None
    if "x" in tail:
        tail, _, raw = tail.rpartition("x")
        try:
            factor = float(raw)
        except ValueError:
            raise ServingError(
                f"scenario op {token!r}: bad factor {raw!r}"
            ) from None
    first, sep, second = tail.partition("..")
    try:
        at = float(first)
        until = float(second) if sep else None
    except ValueError:
        raise ServingError(
            f"scenario op {token!r}: bad time {tail!r}"
        ) from None
    return verb, subject, at, until, factor, pulses


def _require(token: str, subject: Optional[str] = None,
             factor: Optional[float] = None,
             pulses: Optional[int] = None,
             want_factor: bool = False) -> None:
    """Reject op/suffix combinations the grammar does not define."""
    if subject == "":
        raise ServingError(f"scenario op {token!r} names no shard")
    if want_factor and factor is None:
        raise ServingError(
            f"scenario op {token!r}: needs a factor "
            "(…@<t>[..<t2>]x<factor>)"
        )
    if not want_factor and factor is not None:
        raise ServingError(
            f"scenario op {token!r}: x<factor> only applies to "
            "degrade/stragglers"
        )
    if pulses is not None:
        raise ServingError(
            f"scenario op {token!r}: *<pulses> only applies to "
            "stragglers"
        )


def parse_scenario(spec: str, seed: int = 2020) -> ChaosScenario:
    """Module-level alias of :meth:`ChaosScenario.parse` (the CLI's
    entry point)."""
    return ChaosScenario.parse(spec, seed=seed)
