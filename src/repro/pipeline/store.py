"""Disk persistence for the evaluation cache (warm sweeps over sweeps).

The in-memory :class:`~repro.pipeline.cache.EvaluationCache` dies with
the process, so repeated CLI invocations over the model zoo — the exact
workload of ``experiments/*`` and ``benchmarks/*`` — re-derive every
estimate.  :class:`EvaluationStore` persists both memo levels under the
*same signatures* the in-memory cache keys on, so a warmed session
replays a sweep out of dictionary lookups.

On-disk format
--------------

A store is a *directory* of append-only **segment** files:

* every :meth:`flush` writes the cache's dirty delta as one new segment
  under a unique name (pid + monotonic counter + random suffix), via
  write-to-temp + :func:`os.replace` — readers never observe a partial
  file and concurrent writers never clobber each other because they
  write distinct segments;
* :meth:`load` merges every readable segment (first writer of a key
  wins, in segment-name order).  A segment with a bad magic, failed
  checksum, truncated payload or mismatched :data:`STORE_VERSION` is
  *skipped and counted*, never fatal — a cache is always allowed to be
  cold;
* :meth:`compact` rewrites the merged contents as a single segment and
  unlinks the ones it subsumed (concurrent readers tolerate the
  disappearance: missing files are skipped like corrupt ones).

Each segment is ``MAGIC || crc32(payload) || payload`` where the payload
pickles ``{"version", "partitions", "estimates"}``: ``partitions`` is
the pickled partition dict and ``estimates`` maps each **device scope**
(the device name, ``key[2]`` of every estimate key) to ``(count,
pickled estimate dict)``.  An estimate key names its device, so a
session on one device can never hit another device's estimates;
:meth:`warm` with ``device=`` therefore decodes only that scope's blob
plus the partitions (which carry no device and are a few percent of
the entries).  Opening a session costs one unpickle of its own scope,
not of the whole store.  The merge is C-level ``dict.update`` in
reverse segment order, which keeps first-writer-wins and reuses each
entry's stored hash: a warmed key is hashed once, by the unpickle that
builds its dict, never by the merge.

Pickle is the right codec here: keys and values are frozen dataclasses
(:class:`~repro.arch.params.AcceleratorConfig`,
:class:`~repro.estimator.latency.LayerEstimate`,
:class:`~repro.mapping.partition.LayerPartition`) plus memoized
:class:`~repro.errors.ReproError` instances, all of which round-trip by
value.  ``STORE_VERSION`` must be bumped whenever persisted results
could change meaning: a persisted type, the segment layout or the
signature layout changing shape, *or any change to the analytical model
equations themselves* (``repro.estimator``, ``repro.mapping.partition``)
— the cache key cannot see a coefficient edit, so the version is what
keeps a warm cache dir from serving estimates of a model that no longer
exists.  Stale entries must be rejected, not deserialized into lies.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ReproError

#: Bump on any change to the cache signatures, the pickled value types,
#: the segment layout OR the analytical model equations (see the module
#: docstring); readers reject segments written under a different
#: version.  Version 2 split the estimates into per-device scopes;
#: version 3 dropped the calibration profile from the estimate key.
STORE_VERSION = 3

#: Leading bytes of every segment file.
MAGIC = b"repro-store\n"

_CRC = struct.Struct("<I")
_SUFFIX = ".seg"


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of one store's load/flush counters.

    ``segments_skipped`` counts unreadable segments (corrupt, truncated,
    foreign or version-mismatched files) tolerated during a load.
    ``estimates_loaded`` counts the estimates actually decoded: a
    device-scoped warm decodes only its own device's.
    """

    segments_loaded: int = 0
    segments_skipped: int = 0
    estimates_loaded: int = 0
    partitions_loaded: int = 0
    flushes: int = 0
    estimates_flushed: int = 0
    partitions_flushed: int = 0

    def describe(self) -> str:
        return (
            f"{self.estimates_loaded} estimates + "
            f"{self.partitions_loaded} partitions from "
            f"{self.segments_loaded} segment(s) "
            f"({self.segments_skipped} skipped), "
            f"{self.estimates_flushed} estimates + "
            f"{self.partitions_flushed} partitions flushed "
            f"in {self.flushes} segment(s)"
        )


@dataclass(frozen=True)
class SegmentSummary:
    """Inspection view of one on-disk segment (``repro cache info``).

    ``scopes`` maps each device name to its stored estimate count, as
    recorded in the segment header.
    """

    name: str
    size_bytes: int
    readable: bool
    partitions: int = 0
    scopes: Dict[str, int] = field(default_factory=dict)

    @property
    def estimates(self) -> int:
        return sum(self.scopes.values())

    @property
    def entries(self) -> int:
        return self.estimates + self.partitions


class EvaluationStore:
    """A directory of persisted :class:`EvaluationCache` entries.

    Parameters
    ----------
    path:
        The cache directory, created by :meth:`warm` (or by the first
        flush); inspection (:meth:`segment_summaries`, :meth:`load`)
        never creates it.
    version:
        Accepted segment version; defaults to :data:`STORE_VERSION`.
        Exposed for tests — production callers never pass it.
    """

    def __init__(
        self, path: Union[str, Path], version: int = STORE_VERSION
    ) -> None:
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise ReproError(
                f"cache dir {self.path} exists and is not a directory"
            )
        self.version = version
        self._lock = threading.Lock()
        self._counter = 0
        self._segments_loaded = 0
        self._segments_skipped = 0
        self._estimates_loaded = 0
        self._partitions_loaded = 0
        self._flushes = 0
        self._estimates_flushed = 0
        self._partitions_flushed = 0

    # -- reading ---------------------------------------------------------

    def segments(self):
        """Current segment paths, in deterministic (name) order."""
        if not self.path.is_dir():
            return []
        return sorted(self.path.glob(f"*{_SUFFIX}"))

    def load(self) -> Tuple[Dict, Dict]:
        """Merged ``(estimates, partitions)`` of every readable segment,
        across every device scope.

        First writer of a key wins (segment-name order), matching the
        in-memory cache's first-writer-wins insert; later duplicates of
        a key are byte-equivalent anyway because entries are pure
        functions of their signature.
        """
        scoped, partitions = self._merge(None)
        return _flatten(scoped), partitions

    def warm(self, cache, device: Optional[str] = None) -> int:
        """Load the store into ``cache`` (entries added, not counted as
        hits or dirty); returns the number of entries added.

        ``device`` limits the estimates to that device's scope — the
        only ones a session on it can hit; ``None`` loads every scope.
        Partitions are device-free and always loaded.  Warming opens
        the store for writing too: it creates the directory, and a path
        that cannot be one raises :class:`ReproError` naming it, before
        the caller computes anything to flush.
        """
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(
                f"cache dir {self.path} cannot be created: "
                f"{exc.strerror or exc}"
            ) from None
        scoped, partitions = self._merge(device)
        return cache.warm(_flatten(scoped), partitions)

    def _merge(self, device: Optional[str]) -> Tuple[Dict, Dict]:
        """``({device: estimates}, partitions)`` merged over every
        readable segment, decoding only ``device``'s scope (every
        scope when ``None``).

        Segments are applied in *reverse* name order with
        ``dict.update``, so the earliest segment's entry is written
        last (first writer wins) and every key keeps the hash its
        unpickle computed.
        """
        scoped: Dict[str, Dict] = {}
        partitions: Dict = {}
        loaded = skipped = 0
        for segment in reversed(self.segments()):
            header = self._read_header(segment)
            if header is None:
                skipped += 1
                continue
            scopes = header["estimates"]
            names = list(scopes) if device is None else (
                [device] if device in scopes else []
            )
            decoded = [_decode(scopes[name][1]) for name in names]
            segment_partitions = _decode(header["partitions"])
            if segment_partitions is None or None in decoded:
                skipped += 1
                continue
            loaded += 1
            partitions.update(segment_partitions)
            for name, entries in zip(names, decoded):
                scoped.setdefault(name, {}).update(entries)
        with self._lock:
            self._segments_loaded += loaded
            self._segments_skipped += skipped
            self._estimates_loaded += sum(map(len, scoped.values()))
            self._partitions_loaded += len(partitions)
        return scoped, partitions

    def _read_header(self, segment: Path) -> Optional[dict]:
        """The validated segment header — version, pickled partitions
        and ``{device: (count, pickled estimates)}`` scopes, none of
        them decoded — or ``None`` for anything unreadable."""
        try:
            blob = segment.read_bytes()
        except OSError:
            return None  # vanished (compaction) or unreadable
        if not blob.startswith(MAGIC):
            return None
        body = blob[len(MAGIC):]
        if len(body) < _CRC.size:
            return None
        (crc,) = _CRC.unpack_from(body)
        payload = body[_CRC.size:]
        if zlib.crc32(payload) != crc:
            return None
        try:
            decoded = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(decoded, dict):
            return None
        if decoded.get("version") != self.version:
            return None
        if not isinstance(decoded.get("partitions"), bytes):
            return None
        scopes = decoded.get("estimates")
        if not isinstance(scopes, dict):
            return None
        for scope in scopes.values():
            if not (
                isinstance(scope, tuple)
                and len(scope) == 2
                and isinstance(scope[0], int)
                and isinstance(scope[1], bytes)
            ):
                return None
        return decoded

    def segment_summaries(self) -> List[SegmentSummary]:
        """Per-segment sizes, per-device estimate counts (read from the
        headers, never decoded) and partition counts.

        Unreadable segments (corrupt, truncated, foreign, wrong
        version) appear with ``readable=False`` and zero counts;
        segments vanishing mid-scan (concurrent compaction) are
        skipped entirely.  Load counters are untouched — inspection is
        invisible to :attr:`stats`.
        """
        summaries: List[SegmentSummary] = []
        for segment in self.segments():
            try:
                size = segment.stat().st_size
            except OSError:
                continue  # vanished under a concurrent compaction
            header = self._read_header(segment)
            partitions = (
                None if header is None else _decode(header["partitions"])
            )
            if partitions is None:
                summaries.append(SegmentSummary(segment.name, size, False))
                continue
            summaries.append(
                SegmentSummary(
                    segment.name,
                    size,
                    True,
                    partitions=len(partitions),
                    scopes={
                        name: count
                        for name, (count, _) in header["estimates"].items()
                    },
                )
            )
        return summaries

    # -- writing ---------------------------------------------------------

    def flush(self, cache) -> int:
        """Persist ``cache``'s dirty delta as one new segment.

        Returns the number of entries written (0 writes no file), so
        flushing an all-warm cache is free.  If the segment write fails
        (disk full, permissions) the delta is re-marked dirty so a
        later flush can still persist it.
        """
        estimates, partitions = cache.take_dirty()
        try:
            return self.flush_entries(estimates, partitions)
        except BaseException:
            cache.mark_dirty(estimates, partitions)
            raise

    def flush_entries(self, estimates: Dict, partitions: Dict) -> int:
        """Write one segment holding exactly these entries, the
        estimates grouped into per-device scopes."""
        scoped: Dict[str, Dict] = {}
        for key, entry in estimates.items():
            scoped.setdefault(key[2], {})[key] = entry
        return self._write_segment(scoped, partitions)

    def _write_segment(self, scoped: Dict[str, Dict], partitions: Dict) -> int:
        """Write ``{device: estimates}`` + ``partitions`` as one segment;
        returns the entries written (0 writes no file)."""
        estimates = sum(map(len, scoped.values()))
        if not estimates + len(partitions):
            return 0
        payload = _dumps(
            {
                "version": self.version,
                "partitions": _dumps(partitions),
                "estimates": {
                    name: (len(entries), _dumps(entries))
                    for name, entries in sorted(scoped.items())
                },
            }
        )
        self.path.mkdir(parents=True, exist_ok=True)
        name = self._segment_name()
        tmp = self.path / (name + ".tmp")
        tmp.write_bytes(MAGIC + _CRC.pack(zlib.crc32(payload)) + payload)
        os.replace(tmp, self.path / name)
        with self._lock:
            self._flushes += 1
            self._estimates_flushed += estimates
            self._partitions_flushed += len(partitions)
        return estimates + len(partitions)

    def compact(self) -> int:
        """Merge all current segments into one, scope by scope; returns
        segments removed (the merged entry counts land in
        :attr:`stats` as one flush).

        Safe against concurrent readers (they skip vanished files) but
        assumes a single compactor — run it from the CLI, not workers.
        """
        before = self.segments()
        if len(before) <= 1:
            return 0
        self._write_segment(*self._merge(None))
        removed = 0
        for segment in before:
            try:
                segment.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _segment_name(self) -> str:
        with self._lock:
            self._counter += 1
            counter = self._counter
        return (
            f"{os.getpid():08d}-{counter:06d}-"
            f"{os.urandom(4).hex()}{_SUFFIX}"
        )

    # -- reporting -------------------------------------------------------

    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                segments_loaded=self._segments_loaded,
                segments_skipped=self._segments_skipped,
                estimates_loaded=self._estimates_loaded,
                partitions_loaded=self._partitions_loaded,
                flushes=self._flushes,
                estimates_flushed=self._estimates_flushed,
                partitions_flushed=self._partitions_flushed,
            )

    def describe(self) -> str:
        return f"store {self.path}: {self.stats.describe()}"


def _dumps(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _decode(blob: bytes) -> Optional[dict]:
    """One pickled entry dict, or ``None`` if it does not decode to one."""
    try:
        decoded = pickle.loads(blob)
    except Exception:
        return None
    return decoded if isinstance(decoded, dict) else None


def _flatten(scoped: Dict[str, Dict]) -> Dict:
    """One estimate dict from per-device scopes (disjoint keys), merged
    without rehashing."""
    if len(scoped) == 1:
        return next(iter(scoped.values()))
    estimates: Dict = {}
    for entries in scoped.values():
        estimates.update(entries)
    return estimates
