"""Synthetic traffic generation for the serving layer.

The serving simulator is driven by *virtual* arrival timestamps, so an
*open-loop* traffic model is just a deterministic function from
(count, rate, seed) to a :class:`RequestStream`: a read-only sequence
of :class:`Request` held as columns (int64 indices, float64 arrivals,
tenant codes over a name tuple), each ``Request`` built only when it is
read.  Four models cover the scenarios the benchmarks exercise:

* ``uniform`` — one closed batch: every request is present at t=0
  (the :class:`~repro.runtime.batch.BatchRunner` comparison case);
* ``fixed-qps`` — an open loop with deterministic ``1/qps`` spacing;
* ``poisson`` — an open loop with exponential inter-arrival times of
  mean ``1/qps`` (memoryless arrivals, the classic serving workload);
* ``burst`` — groups of simultaneous requests spaced so the *average*
  rate is still ``qps`` (tests the batcher's coalescing and the tail
  behaviour of the schedulers).

On the event kernel every traffic model is an
:class:`~repro.serving.events.EventSource`: :class:`OpenLoopSource`
wraps any request stream (arrivals independent of completions) and
hands its sorted arrival column to the kernel's arrival cursor
(:meth:`~repro.serving.events.EventKernel.push_sorted`), so no
``Arrival`` exists before it is next; :class:`ClosedLoopClientPool`
implements the classic closed-loop methodology — N clients, each
issuing its next request one think time after its previous one
*completes*, so the arrival process depends on the system's own
behaviour — and :class:`TraceSource` replays *real* arrival logs (CSV
or JSONL timestamp files, loaded by :func:`load_trace`) with
time-scaling and looping, so a few seconds of production traffic can
drive an arbitrarily long, rate-matched simulation next to the
synthetic models.
"""

from __future__ import annotations

import collections.abc
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ServingError
from repro.serving.events import Arrival, BatchDone, EventKernel, EventSource
from repro.serving.metrics import _column
from repro.serving.tenancy import DEFAULT_TENANT, TenantSet, split_clients

#: Traffic models understood by :func:`make_requests` and the CLI.
TRAFFIC_MODELS = ("uniform", "fixed-qps", "poisson", "burst")

#: Think-time distributions of :class:`ClosedLoopClientPool`.
THINK_DISTRIBUTIONS = ("fixed", "exponential")


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request: an identity, a virtual arrival time and
    the tenant it belongs to (untagged construction sites keep working
    — they mint :data:`~repro.serving.tenancy.DEFAULT_TENANT`
    requests)."""

    index: int
    arrival: float
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        # One chained comparison rejects negatives, inf and NaN alike.
        if not 0 <= self.arrival < math.inf:
            raise ServingError(
                f"request {self.index}: arrival must be finite and >= 0, "
                f"got {self.arrival}"
            )
        if not self.tenant:
            raise ServingError(
                f"request {self.index}: tenant must be non-empty"
            )


class TenantTags(collections.abc.Sequence):
    """A read-only column of tenant names: int64 ``codes`` into the
    ``names`` tuple, or ``codes=None`` when all ``count`` entries are
    ``names[0]`` (an untagged column keeps nothing per entry).  It
    decodes on demand and compares equal to a list of the same names.
    """

    __slots__ = ("codes", "names", "count")

    def __init__(self, codes, names: Sequence[str], count: int):
        self.names = tuple(names)
        if not self.names or not all(
            isinstance(name, str) and name for name in self.names
        ):
            raise ServingError("tenant tags must be non-empty names")
        self.codes = None if codes is None else _column(codes, np.int64)
        if self.codes is not None and (
            self.codes.shape != (count,) or count and (
                int(self.codes.min()) < 0
                or int(self.codes.max()) >= len(self.names)
            )
        ):
            raise ServingError("tenant codes must be one name per entry")
        self.count = count

    @classmethod
    def encode(cls, labels: Iterable[str]) -> "TenantTags":
        """Tags for a sequence of names, coded in first-seen order."""
        lookup: Dict[str, int] = {}
        codes = [lookup.setdefault(label, len(lookup)) for label in labels]
        names = tuple(lookup) or (DEFAULT_TENANT,)
        return cls(codes if len(names) > 1 else None, names, len(codes))

    def select(self, item, count: int) -> "TenantTags":
        """The ``count`` tags at ``item`` (a slice or an index array)."""
        return TenantTags(
            None if self.codes is None else self.codes[item],
            self.names,
            count,
        )

    @property
    def in_use(self) -> frozenset:
        """The names the entries actually carry."""
        if self.codes is None:
            return frozenset(self.names[:1] if self.count else ())
        used = np.bincount(self.codes, minlength=len(self.names)).tolist()
        return frozenset(
            name for name, count in zip(self.names, used) if count
        )

    @property
    def tenanted(self) -> bool:
        """True when any entry carries a non-default name."""
        return bool(self.in_use - {DEFAULT_TENANT})

    def tolist(self) -> List[str]:
        if self.codes is None:
            return list(self.names[:1]) * self.count
        return np.asarray(self.names, dtype=object)[self.codes].tolist()

    def __reduce__(self):
        # Unpickling re-validates and re-freezes the codes.
        return (TenantTags, (self.codes, self.names, self.count))

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> str:
        if self.codes is not None:
            return self.names[self.codes[index]]
        if not -self.count <= index < self.count:
            raise IndexError("tenant tag index out of range")
        return self.names[0]

    def __iter__(self) -> Iterator[str]:
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, TenantTags)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TenantTags({self.count} tags over {self.names})"


class RequestStream(collections.abc.Sequence):
    """Open-loop traffic as columns: a read-only sequence of
    :class:`Request`.

    ``indices`` (int64) and ``arrivals`` (float64) are read-only
    arrays and ``tags`` the :class:`TenantTags` column (``None`` means
    every request is the default tenant's).  The columns are validated
    once, vectorised, at construction.

    Reading a position or iterating builds the ``Request`` objects on
    demand; slicing gives a stream over views of the same columns.
    Equality compares with another stream by column (tenants by name)
    and with a list or tuple of requests element by element, so
    ``make_requests(...) == [Request(...), ...]`` holds.
    """

    __slots__ = ("indices", "arrivals", "tags")

    def __init__(self, indices, arrivals, tags: Optional[TenantTags] = None):
        self.indices = _column(indices, np.int64)
        self.arrivals = _column(arrivals, np.float64)
        count = len(self.arrivals)
        self.tags = (
            TenantTags(None, (DEFAULT_TENANT,), count) if tags is None
            else tags
        )
        if (
            self.arrivals.ndim != 1
            or self.indices.shape != (count,)
            or len(self.tags) != count
        ):
            raise ServingError(
                "request columns must be one-dimensional and equally long"
            )
        valid = (self.arrivals >= 0) & (self.arrivals < math.inf)
        if not valid.all():
            position = int(np.argmin(valid))
            raise ServingError(
                f"request {int(self.indices[position])}: arrival must be "
                f"finite and >= 0, got {float(self.arrivals[position])}"
            )

    @classmethod
    def of(cls, requests: Iterable[Request]) -> "RequestStream":
        """``requests`` as a stream (a stream is returned as is).

        The one place a plain request list is converted: every item
        must be a :class:`Request`."""
        if isinstance(requests, cls):
            return requests
        requests = list(requests)
        if not all(isinstance(request, Request) for request in requests):
            raise ServingError(
                "traffic must be a Request list or ONE EventSource: "
                "independent sources would mint colliding request indices"
            )
        return cls(
            [request.index for request in requests],
            [request.arrival for request in requests],
            TenantTags.encode(request.tenant for request in requests),
        )

    def __reduce__(self):
        # Unpickling re-validates and re-freezes the columns.
        return (RequestStream, (self.indices, self.arrivals, self.tags))

    def sorted_by_arrival(self) -> "RequestStream":
        """The stream ordered by ``(arrival, index)`` — itself when one
        vectorised check shows it already is."""
        arrivals, indices = self.arrivals, self.indices
        ahead, behind = arrivals[1:], arrivals[:-1]
        if (
            (ahead > behind)
            | ((ahead == behind) & (indices[1:] >= indices[:-1]))
        ).all():
            return self
        return self._select(np.lexsort((indices, arrivals)))

    def _select(self, item) -> "RequestStream":
        arrivals = self.arrivals[item]
        return RequestStream(
            self.indices[item], arrivals,
            self.tags.select(item, len(arrivals)),
        )

    # -- sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.arrivals)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self._select(item)
        return Request(
            int(self.indices[item]), float(self.arrivals[item]),
            self.tags[item],
        )

    def __iter__(self) -> Iterator[Request]:
        return map(
            Request,
            self.indices.tolist(),
            self.arrivals.tolist(),
            self.tags.tolist(),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        if not isinstance(other, RequestStream):
            return NotImplemented
        return (
            np.array_equal(self.indices, other.indices)
            and np.array_equal(self.arrivals, other.arrivals)
            and self.tags == other.tags
        )

    def __repr__(self) -> str:
        return f"RequestStream({len(self)} requests)"


def fixed_qps_arrivals(count: int, qps: float) -> List[float]:
    """Open loop with deterministic spacing ``1/qps``."""
    return _arrivals("fixed-qps", count, qps).tolist()


def poisson_arrivals(count: int, qps: float, seed: int = 2020) -> List[float]:
    """Open loop with exponential inter-arrivals of mean ``1/qps``."""
    return _arrivals("poisson", count, qps, seed=seed).tolist()


def burst_arrivals(count: int, qps: float, burst: int = 8) -> List[float]:
    """Bursts of ``burst`` simultaneous requests at average rate ``qps``.

    Burst ``k`` lands at ``k * burst / qps`` — the long-run rate matches
    ``fixed-qps`` while the instantaneous rate is infinite.
    """
    return _arrivals("burst", count, qps, burst=burst).tolist()


def _arrivals(
    model: str,
    count: int,
    qps: Optional[float] = None,
    seed: int = 2020,
    burst: int = 8,
) -> np.ndarray:
    """One model's arrival instants as a float64 column.  Each
    elementwise op is the scalar op the model is defined by (``index /
    qps``, a running sum of the gaps, ``(index // burst) * burst /
    qps``), so the column equals the per-request values bit for bit."""
    _check_count(count)
    if model == "uniform":
        return np.zeros(count)
    _check_qps(qps)
    if model == "fixed-qps":
        return np.arange(count) / qps
    if model == "poisson":
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.exponential(scale=1.0 / qps, size=count))
    if burst < 1:
        raise ServingError(f"burst size must be >= 1, got {burst}")
    return ((np.arange(count) // burst) * burst) / qps


def make_requests(
    model: str,
    count: int,
    qps: Optional[float] = None,
    seed: int = 2020,
    burst: int = 8,
    tenant: str = DEFAULT_TENANT,
) -> RequestStream:
    """Requests of one traffic ``model``, sorted by arrival time.

    ``qps`` is required by every model except ``uniform``.  ``tenant``
    tags every minted request with one tenant — build one stream per
    tenant and combine with :func:`merge_streams` for a mix, or tag a
    single stream weight-proportionally with
    :func:`~repro.serving.tenancy.assign_tenants`.
    """
    if model not in TRAFFIC_MODELS:
        raise ServingError(
            f"unknown traffic model {model!r}; "
            f"expected one of {TRAFFIC_MODELS}"
        )
    if model != "uniform" and qps is None:
        raise ServingError(f"traffic model {model!r} requires a qps")
    return RequestStream(
        np.arange(count),
        _arrivals(model, count, qps, seed, burst),
        TenantTags(None, (tenant,), count),
    )


def merge_streams(*streams: Sequence[Request]) -> RequestStream:
    """Merge per-tenant request streams into one globally-indexed
    stream.

    The inputs keep their tenant tags and arrival instants; the merge
    orders by ``(arrival, tenant name, original index)`` — one stable
    ``np.lexsort``, fully deterministic — and re-mints sequential
    indices, because request indices are the identity that keys
    completion bookkeeping and two independent streams would collide.
    """
    parts = [RequestStream.of(stream) for stream in streams]
    if not sum(map(len, parts)):
        raise ServingError("nothing to merge: every stream is empty")
    # Names in string order, so the codes sort as the names do.
    names = tuple(sorted({
        name for part in parts for name in part.tags.names
    }))
    rank = {name: code for code, name in enumerate(names)}
    codes = []
    for part in parts:
        remap = np.asarray(
            [rank[name] for name in part.tags.names], dtype=np.int64
        )
        codes.append(
            np.full(len(part), remap[0]) if part.tags.codes is None
            else remap[part.tags.codes]
        )
    arrivals = np.concatenate([part.arrivals for part in parts])
    indices = np.concatenate([part.indices for part in parts])
    codes = np.concatenate(codes)
    order = np.lexsort((indices, codes, arrivals))
    return RequestStream(
        np.arange(len(order)),
        arrivals[order],
        TenantTags(codes[order], names, len(order)),
    )


def shaped_requests(
    requests: Sequence[Request], shapes: Sequence
) -> RequestStream:
    """``requests`` with their arrivals warped by ``shapes`` (see
    :func:`shape_arrivals`); indices and tenants are kept, and the
    warped instants stay one column."""
    stream = RequestStream.of(requests)
    return RequestStream(
        stream.indices, _warp(stream.arrivals, shapes), stream.tags
    )


class OpenLoopSource(EventSource):
    """An arrival stream that ignores completions.

    Wraps any request stream (every ``make_requests`` model; a plain
    request list is converted once) as an event source.
    :attr:`requests` is the stream ordered by ``(arrival, index)``, so
    simultaneous arrivals enter in index order — the order the
    pre-kernel batcher consumed them in — and priming hands that
    order to the kernel's arrival cursor: each
    :class:`~repro.serving.events.Arrival` is built when its instant is
    next, with the sequence number an eager push would have given it.
    """

    def __init__(self, requests: Sequence[Request]):
        stream = RequestStream.of(requests)
        if not len(stream):
            raise ServingError("nothing to serve: empty request stream")
        self.requests = stream.sorted_by_arrival()
        #: True when any request carries a non-default tenant tag —
        #: precomputed so fast-forward eligibility gating stays O(1).
        self.tenanted = stream.tags.tenanted

    def prime(self, kernel: EventKernel) -> None:
        _prime_arrivals(kernel, self.requests)


def _prime_arrivals(kernel: EventKernel, stream: RequestStream) -> None:
    """Schedule one ``Arrival`` per request of the arrival-sorted
    ``stream`` through the kernel's cursor."""
    indices = stream.indices
    codes, names = stream.tags.codes, stream.tags.names

    def make(position: int, time: float) -> Arrival:
        tenant = names[0] if codes is None else names[codes[position]]
        return Arrival(
            time, Request(int(indices[position]), time, tenant)
        )

    kernel.push_sorted(stream.arrivals, Arrival, make)


#: Column/key names :func:`load_trace` accepts for the arrival instant.
TRACE_FIELDS = ("timestamp", "arrival", "time", "ts")

#: Column/key name carrying a request's tenant tag in tagged traces.
TRACE_TENANT_FIELD = "tenant"


def load_trace(path: Union[str, Path]) -> List[float]:
    """Arrival timestamps from a trace file (seconds, unsorted OK).

    Two formats, chosen by suffix:

    * ``.jsonl`` / ``.ndjson`` / ``.json`` — one JSON document per
      line: either a bare number or an object with one of
      ``TRACE_FIELDS`` (extra keys — request shapes, ids — ignored).
      A ``.json`` file holding one top-level array of such entries is
      accepted too;
    * anything else is read as CSV — a single timestamp column, or a
      header row naming one of ``TRACE_FIELDS`` (extra columns
      ignored).

    Timestamps may be epoch-based: :class:`TraceSource` rebases them to
    the earliest arrival before replaying.  An optional ``tenant``
    column/key tags each arrival with a traffic class —
    :func:`load_tagged_trace` returns the tags alongside the instants.
    """
    return [value for value, _tenant in load_tagged_trace(path)]


def load_tagged_trace(
    path: Union[str, Path],
) -> List[Tuple[float, str]]:
    """``(arrival, tenant)`` pairs from a trace file.

    Same formats as :func:`load_trace`; entries without a ``tenant``
    column/key belong to :data:`~repro.serving.tenancy.DEFAULT_TENANT`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ServingError(f"cannot read trace {path}: {exc}") from None
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        arrivals = _parse_jsonl_trace(path, text)
    else:
        arrivals = _parse_csv_trace(path, text)
    if not arrivals:
        raise ServingError(f"trace {path} holds no arrivals")
    return arrivals


def _trace_value(path: Path, line: int, raw: object) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ServingError(
            f"trace {path} line {line}: bad timestamp {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ServingError(
            f"trace {path} line {line}: timestamp must be finite, "
            f"got {value}"
        )
    return value


def _trace_tenant(path: Path, line: int, raw: object) -> str:
    tenant = str(raw).strip()
    if not tenant:
        raise ServingError(
            f"trace {path} line {line}: tenant tag must be non-empty"
        )
    return tenant


def _trace_entry(path: Path, position: int, doc: object) -> Tuple[float, str]:
    """One JSONL/JSON entry: a bare number or a TRACE_FIELDS object,
    optionally tagged with a ``tenant`` key."""
    tenant = DEFAULT_TENANT
    if isinstance(doc, dict):
        if TRACE_TENANT_FIELD in doc:
            tenant = _trace_tenant(path, position, doc[TRACE_TENANT_FIELD])
        for key in TRACE_FIELDS:
            if key in doc:
                doc = doc[key]
                break
        else:
            raise ServingError(
                f"trace {path} entry {position}: no timestamp key "
                f"(expected one of {TRACE_FIELDS})"
            )
    return _trace_value(path, position, doc), tenant


def _parse_jsonl_trace(path: Path, text: str) -> List[Tuple[float, str]]:
    # A .json file may hold one top-level array instead of one
    # document per line.
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, list):
        return [
            _trace_entry(path, position, entry)
            for position, entry in enumerate(doc, start=1)
        ]
    arrivals = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            raise ServingError(
                f"trace {path} line {number}: not JSON: {line[:40]!r}"
            ) from None
        arrivals.append(_trace_entry(path, number, entry))
    return arrivals


def _parse_csv_trace(path: Path, text: str) -> List[Tuple[float, str]]:
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        return []
    column, start = 0, 0
    tenant_column: Optional[int] = None
    head = [cell.strip().lower() for cell in rows[0]]
    try:
        float(head[0])
    except ValueError:
        # Header row: find the timestamp column by name.
        for key in TRACE_FIELDS:
            if key in head:
                column, start = head.index(key), 1
                break
        else:
            raise ServingError(
                f"trace {path}: header {rows[0]!r} names no timestamp "
                f"column (expected one of {TRACE_FIELDS})"
            ) from None
        if TRACE_TENANT_FIELD in head:
            tenant_column = head.index(TRACE_TENANT_FIELD)
    arrivals = []
    for number, row in enumerate(rows[start:], start=start + 1):
        if column >= len(row):
            raise ServingError(
                f"trace {path} line {number}: missing column {column}"
            )
        tenant = DEFAULT_TENANT
        if tenant_column is not None and tenant_column < len(row):
            tenant = _trace_tenant(path, number, row[tenant_column])
        arrivals.append(
            (_trace_value(path, number, row[column].strip()), tenant)
        )
    return arrivals


class TraceSource(EventSource):
    """Replay a recorded arrival trace as an open-loop event source.

    The trace is rebased to its earliest arrival (epoch timestamps
    replay from t=0), multiplied by ``time_scale`` (0.5 replays twice
    as fast — the knob that rate-matches a production trace to a
    simulated pool's capacity) and repeated ``loop`` times, each
    repetition offset by the scaled span plus one mean inter-arrival
    gap so the seam keeps the trace's own cadence.  Request indices
    run sequentially across loops, so a trace composes with everything
    keyed on request identity (SLO shed counts, failure re-queues,
    closed-loop think-time clients sharing the same benchmark).

    ``arrivals`` may be any 1-D sequence of numbers, a numpy array
    included.  The replayed instants are :attr:`arrivals`, one
    read-only float64 array in request-index order: a million-arrival
    replay stays one column from the trace file to the report (the
    fast-forward engine hands it to the report uncopied, so nothing
    may write to it).  :attr:`tags` is the matching
    :class:`TenantTags` column — the one a :class:`RequestStream`
    holds, with no per-arrival entry for an untagged trace — and
    passing it back as ``tenants`` reuses its codes as they are.
    """

    def __init__(
        self,
        arrivals: Sequence[float],
        time_scale: float = 1.0,
        loop: int = 1,
        name: str = "trace",
        tenants: Optional[Sequence[str]] = None,
    ):
        count = len(arrivals)
        if count == 0:
            raise ServingError("nothing to serve: empty trace")
        if time_scale <= 0 or not math.isfinite(time_scale):
            raise ServingError(
                f"time_scale must be positive and finite, got {time_scale}"
            )
        if loop < 1:
            raise ServingError(f"loop must be >= 1, got {loop}")
        if tenants is None:
            tags = TenantTags(None, (DEFAULT_TENANT,), count)
        elif isinstance(tenants, TenantTags):
            tags = tenants
        else:
            tags = TenantTags.encode(map(str, tenants))
        if len(tags) != count:
            raise ServingError(
                f"trace has {count} arrivals but {len(tags)} tenant tags"
            )
        values = np.array(arrivals, dtype=np.float64)
        if values.ndim != 1:
            raise ServingError(
                f"trace arrivals must be one-dimensional, got shape "
                f"{values.shape}"
            )
        if not np.isfinite(values).all():
            raise ServingError("trace arrivals must be finite")
        # A stable sort keeps simultaneous arrivals in trace order.  An
        # already sorted trace (a warped or re-wrapped replay) keeps its
        # order as it is, tags included.
        if (values[1:] < values[:-1]).any():
            order = np.argsort(values, kind="stable")
            values = values[order]
            tags = tags.select(order, count)
        scaled = (values - values[0]) * time_scale
        span = float(scaled[-1])
        gap = span / (count - 1) if count > 1 else 0.0
        cycle = span + gap
        self.name = name
        self.time_scale = time_scale
        self.loop = loop
        # ``iteration * cycle + value`` for every loop and arrival, as
        # one broadcast (int64 -> float64 is exact below 2**53).
        self.arrivals = (
            np.arange(loop)[:, None] * cycle + scaled
        ).ravel()
        self.arrivals.flags.writeable = False
        #: True when any arrival carries a non-default tenant tag —
        #: precomputed so fast-forward eligibility gating stays O(1).
        self.tenanted = tags.tenanted
        if loop > 1:
            tags = TenantTags(
                None if tags.codes is None else np.tile(tags.codes, loop),
                tags.names,
                count * loop,
            )
        self.tags = tags

    def __setstate__(self, state) -> None:
        # Unpickling (sweep workers) rebuilds a writeable array.
        self.__dict__.update(state)
        self.arrivals.flags.writeable = False

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        time_scale: float = 1.0,
        loop: int = 1,
    ) -> "TraceSource":
        """A source straight from a trace file (see :func:`load_trace`);
        a ``tenant`` column/key in the trace tags the replayed
        arrivals."""
        tagged = load_tagged_trace(path)
        return cls(
            [value for value, _tenant in tagged],
            time_scale=time_scale,
            loop=loop,
            name=str(Path(path).name),
            tenants=[tenant for _value, tenant in tagged],
        )

    def requests(self) -> RequestStream:
        """The replayed arrivals as a request stream over the same
        columns (indices ``0..N-1``) — usable anywhere the synthetic
        models are."""
        return RequestStream(
            np.arange(len(self.arrivals)), self.arrivals, self.tags
        )

    @property
    def span_seconds(self) -> float:
        """First to last replayed arrival."""
        return float(self.arrivals[-1] - self.arrivals[0])

    def mean_qps(self) -> float:
        """Long-run replayed arrival rate (NaN for a single instant)."""
        if self.span_seconds <= 0:
            return float("nan")
        return (len(self.arrivals) - 1) / self.span_seconds

    def prime(self, kernel: EventKernel) -> None:
        _prime_arrivals(kernel, self.requests().sorted_by_arrival())

    def describe(self) -> str:
        rate = self.mean_qps()
        rate_text = f"{rate:.1f} req/s" if rate == rate else "instantaneous"
        return (
            f"trace {self.name}: {len(self.arrivals)} arrivals over "
            f"{self.span_seconds * 1e3:.1f} ms ({rate_text}, "
            f"scale {self.time_scale:g}, loop {self.loop})"
        )


#: Traffic-shape verbs understood by :func:`parse_shape` and the CLI.
TRAFFIC_SHAPES = ("diurnal", "flash")


@dataclass(frozen=True)
class Diurnal:
    """A smooth load cycle: intensity ``1 + amplitude *
    sin(2*pi*t/period + phase)`` — the day/night swing every production
    trace rides on.  ``amplitude`` must stay below 1 so the intensity
    never reaches zero (a zero-intensity stretch would make the
    time-warp non-invertible)."""

    amplitude: float
    period_s: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.amplitude < 1:
            raise ServingError(
                f"diurnal amplitude must be in [0, 1), "
                f"got {self.amplitude}"
            )
        if self.period_s <= 0 or not math.isfinite(self.period_s):
            raise ServingError(
                f"diurnal period must be positive and finite, "
                f"got {self.period_s}"
            )

    def intensity(self, t: np.ndarray) -> np.ndarray:
        return 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * t / self.period_s + self.phase
        )

    def describe(self) -> str:
        return (
            f"diurnal x{1 + self.amplitude:g} over "
            f"{self.period_s * 1e3:.1f} ms"
        )


@dataclass(frozen=True)
class FlashCrowd:
    """A flash crowd: a Gaussian intensity bump of height ``amplitude``
    centred at ``at`` with width ``width_s`` (its standard deviation) —
    the news-event spike that tests how fast control loops react."""

    amplitude: float
    at: float
    width_s: float

    def __post_init__(self) -> None:
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise ServingError(
                f"flash-crowd amplitude must be >= 0 and finite, "
                f"got {self.amplitude}"
            )
        if self.width_s <= 0 or not math.isfinite(self.width_s):
            raise ServingError(
                f"flash-crowd width must be positive and finite, "
                f"got {self.width_s}"
            )
        if not math.isfinite(self.at):
            raise ServingError(
                f"flash-crowd centre must be finite, got {self.at}"
            )

    def intensity(self, t: np.ndarray) -> np.ndarray:
        return 1.0 + self.amplitude * np.exp(
            -0.5 * ((t - self.at) / self.width_s) ** 2
        )

    def describe(self) -> str:
        return (
            f"flash x{1 + self.amplitude:g} @ {self.at * 1e3:.1f} ms "
            f"(width {self.width_s * 1e3:.1f} ms)"
        )


def parse_shape(spec: str) -> Union[Diurnal, FlashCrowd]:
    """One ``--shape`` spec::

        diurnal:<amplitude>x<period>[+<phase>]   cycle (seconds, radians)
        flash:<amplitude>@<centre>~<width>       Gaussian bump (seconds)

    e.g. ``diurnal:0.5x0.2`` (load swings +-50% with a 200 ms period) or
    ``flash:3@0.05~0.01`` (a 4x spike 50 ms in, 10 ms wide).
    """
    verb, sep, tail = spec.partition(":")
    if not sep:
        raise ServingError(
            f"traffic shape {spec!r}: expected "
            f"<verb>:<args> with verb one of {TRAFFIC_SHAPES}"
        )

    def number(raw: str, what: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ServingError(
                f"traffic shape {spec!r}: bad {what} {raw!r}"
            ) from None

    if verb == "diurnal":
        amplitude, sep, rest = tail.partition("x")
        if not sep:
            raise ServingError(
                f"traffic shape {spec!r}: expected "
                "diurnal:<amplitude>x<period>[+<phase>]"
            )
        period, sep, phase = rest.partition("+")
        return Diurnal(
            amplitude=number(amplitude, "amplitude"),
            period_s=number(period, "period"),
            phase=number(phase, "phase") if sep else 0.0,
        )
    if verb == "flash":
        amplitude, sep, rest = tail.partition("@")
        if not sep:
            raise ServingError(
                f"traffic shape {spec!r}: expected "
                "flash:<amplitude>@<centre>~<width>"
            )
        centre, sep, width = rest.partition("~")
        if not sep:
            raise ServingError(
                f"traffic shape {spec!r}: expected "
                "flash:<amplitude>@<centre>~<width>"
            )
        return FlashCrowd(
            amplitude=number(amplitude, "amplitude"),
            at=number(centre, "centre"),
            width_s=number(width, "width"),
        )
    raise ServingError(
        f"traffic shape {spec!r}: unknown verb {verb!r}; "
        f"expected one of {TRAFFIC_SHAPES}"
    )


def shape_arrivals(
    arrivals: Sequence[float],
    shapes: Sequence,
    samples: int = 4096,
) -> List[float]:
    """Warp ``arrivals`` so their local rate follows ``shapes``.

    The composed intensity ``s(t)`` (the product of each shape's
    ``intensity``) defines a cumulative ``L(t) = integral of s``; each
    arrival ``a`` maps to the warped instant ``w`` with ``L(w) =
    a * L(span)/span`` — arrivals bunch where the intensity is high and
    spread where it is low, while the first/last instants and the
    arrival *order* are exactly preserved (every intensity is bounded
    away from zero, so ``L`` is strictly increasing and the inversion
    is well defined).  ``L`` is computed by trapezoid sums on a
    ``samples``-point grid and inverted with ``np.interp`` — pure
    deterministic float math, no randomness.
    """
    return _warp(arrivals, shapes, samples).tolist()


def _warp(
    arrivals: Sequence[float], shapes: Sequence, samples: int = 4096
) -> np.ndarray:
    """:func:`shape_arrivals` as a float64 column."""
    values = np.asarray(arrivals, dtype=np.float64)
    if not shapes:
        return values
    if samples < 2:
        raise ServingError(f"shape samples must be >= 2, got {samples}")
    if values.size == 0:
        raise ServingError("nothing to shape: empty arrival list")
    if not np.all(np.isfinite(values)):
        raise ServingError("arrivals must be finite")
    origin = float(values.min())
    span = float(values.max()) - origin
    if span <= 0.0:
        return values
    grid = np.linspace(0.0, span, samples)
    intensity = np.ones_like(grid)
    for shape in shapes:
        intensity = intensity * shape.intensity(grid + origin)
    steps = np.diff(grid) * 0.5 * (intensity[1:] + intensity[:-1])
    cumulative = np.concatenate(([0.0], np.cumsum(steps)))
    # Renormalise so the warp fixes both endpoints: L(span) == span.
    cumulative *= span / cumulative[-1]
    return np.interp(values - origin, cumulative, grid) + origin


def shaped_trace(source: "TraceSource", shapes: Sequence) -> "TraceSource":
    """A :class:`TraceSource` replaying ``source`` with its arrivals
    warped by ``shapes`` (see :func:`shape_arrivals`); rebasing,
    scaling and looping have already been applied, so the shapes act on
    the replayed timeline.  The warped instants stay one column, and
    the tenant codes pass through as they are."""
    shaped = TraceSource(
        _warp(source.arrivals, shapes),
        name=f"{source.name}+shaped",
        tenants=source.tags,
    )
    # Keep the provenance knobs: the arrivals above are already scaled
    # and looped, so the new source must not re-apply them.
    shaped.time_scale = source.time_scale
    shaped.loop = source.loop
    return shaped


class ClosedLoopClientPool(EventSource):
    """N closed-loop clients with think time — arrivals that depend on
    completions.

    Each client keeps exactly one request outstanding: all clients
    issue at t=0, and a client issues its next request one think time
    after its previous request *completes* (or is shed — a dropped
    request does not stall its client forever).  ``requests`` bounds
    the total issued across all clients, so a run always terminates.

    Think times are ``fixed`` (always ``think_time_s``) or
    ``exponential`` (mean ``think_time_s``, seeded — draws happen in
    deterministic completion order, so a run is exactly reproducible).

    With a non-trivial ``tenants`` set the clients split into
    per-tenant groups, apportioned by tenant weight
    (:func:`~repro.serving.tenancy.split_clients` — largest remainder,
    registration order, no RNG): client ids run in registration-order
    blocks and every request a client issues carries its group's tag.
    """

    def __init__(
        self,
        clients: int,
        requests: int,
        think_time_s: float = 0.0,
        distribution: str = "fixed",
        seed: int = 2020,
        tenants: Optional[TenantSet] = None,
    ):
        if clients < 1:
            raise ServingError(f"client count must be >= 1, got {clients}")
        if requests < 0:
            raise ServingError(
                f"total requests must be >= 0, got {requests}"
            )
        if not 0 <= think_time_s < math.inf:
            raise ServingError(
                f"think time must be finite and >= 0, got {think_time_s}"
            )
        if distribution not in THINK_DISTRIBUTIONS:
            raise ServingError(
                f"unknown think-time distribution {distribution!r}; "
                f"expected one of {THINK_DISTRIBUTIONS}"
            )
        self.clients = clients
        self.requests = requests
        self.think_time_s = think_time_s
        self.distribution = distribution
        self.seed = seed
        if tenants is None:
            self._client_tenant = [DEFAULT_TENANT] * clients
        else:
            self._client_tenant = [
                name
                for name, count in split_clients(clients, tenants)
                for _client in range(count)
            ]
        #: True when any client issues non-default-tagged requests —
        #: precomputed so fast-forward eligibility gating stays O(1).
        self.tenanted = any(
            tag != DEFAULT_TENANT for tag in self._client_tenant
        )
        self._rng: Optional[np.random.Generator] = None
        self._owner: Dict[int, int] = {}  # outstanding index -> client
        self._issued = 0

    def prime(self, kernel: EventKernel) -> None:
        """All clients issue their first request at t=0 (per-run state
        is reset, so one pool can drive back-to-back runs)."""
        self._rng = np.random.default_rng(self.seed)
        self._owner = {}
        self._issued = 0
        for client in range(min(self.clients, self.requests)):
            self._issue(kernel, client, at=0.0)

    def _think(self) -> float:
        if self.distribution == "exponential" and self.think_time_s > 0:
            return float(self._rng.exponential(scale=self.think_time_s))
        return self.think_time_s

    def _issue(self, kernel: EventKernel, client: int, at: float) -> None:
        index = self._issued
        self._issued += 1
        self._owner[index] = client
        kernel.push(
            Arrival(
                time=at,
                request=Request(
                    index, at, tenant=self._client_tenant[client]
                ),
            )
        )

    def _advance(self, kernel: EventKernel, index: int, at: float) -> None:
        client = self._owner.pop(index, None)
        if client is not None and self._issued < self.requests:
            self._issue(kernel, client, at=at + self._think())

    def on_batch_done(self, kernel: EventKernel, event: BatchDone) -> None:
        for request in event.requests:
            self._advance(kernel, request.index, event.time)

    def on_shed(
        self, kernel: EventKernel, requests: List[Request], now: float
    ) -> None:
        """A shed request unblocks its client like a completion would:
        the client thinks, then issues its next request."""
        for request in requests:
            self._advance(kernel, request.index, now)


def _check_count(count: int) -> None:
    if count < 1:
        raise ServingError(f"request count must be >= 1, got {count}")


def _check_qps(qps: float) -> None:
    if not 0 < qps < math.inf:
        raise ServingError(f"qps must be positive and finite, got {qps}")
