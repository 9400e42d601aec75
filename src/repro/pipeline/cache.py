"""Memoized layer estimation (the pipeline's innermost cache).

``estimate_layer`` is the hot function of the single-design path:
:func:`~repro.dse.engine.map_network` calls it once per (layer x mode x
dataflow) plus once more per layer for the network estimate.  The
cache memoizes it at two levels:

* the **estimate level** keys on everything the result depends on — the
  layer's *shape signature* (geometry only, not identity: VGG-style
  networks repeat convolution shapes heavily, so conv5_1 and conv5_2
  share one entry), the accelerator configuration, the device's memory
  system, mode, dataflow and fused-pool factor (latency is
  calibration-free, so the calibration profile is not part of it);
* the **partition level** keys on the subset the group geometry depends
  on — shape, (PI, PO, PT), buffer sizes and mode.  A partition is
  therefore shared across both dataflows, all data widths, all clocks
  and every instance count of the same PE geometry.  It serves the
  estimate level's misses.  The DSE does not use the cache at all: its
  candidate-batch estimator computes the group counts as columns
  (:class:`~repro.mapping.partition.LayerColumns`).

Failures are memoized too: an infeasible combination raises an equal
:class:`~repro.errors.ReproError` on every retry, so both levels store
the original exception and re-raise a fresh copy (relabelled with the
requesting layer's name on shape-deduplicated hits) instead of
re-deriving it.

Cache hits whose stored entry came from a *different* layer name are
counted separately (``shape_dedup_hits``) — they measure exactly the
within-network shape deduplication.  On such hits the estimate is
re-labelled with the requested layer's name, so cached and uncached
paths return byte-identical results.

Entries are plain ``(value, error, from_name)`` triples of frozen
dataclasses and :class:`~repro.errors.ReproError` instances, so they are
pickleable by value.  That is what lets a cache be **warmed** from an
on-disk :class:`~repro.pipeline.store.EvaluationStore` and hand its
*dirty delta* (entries computed since the last flush) back to the
store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Tuple

from repro.arch.params import AcceleratorConfig
from repro.errors import ReproError
from repro.estimator.latency import LayerEstimate, estimate_layer
from repro.fpga.device import FpgaDevice
from repro.ir.graph import LayerInfo
from repro.mapping.partition import LayerPartition, partition_layer


def layer_signature(info: LayerInfo, fused_pool: int = 1) -> Tuple:
    """Hashable geometry key of one compute layer.

    Two layers with equal signatures are indistinguishable to the
    analytical model: same input/output shapes, kernel, stride, padding,
    fused activation/pooling and op count.  Names are deliberately
    excluded — that is what enables shape deduplication.
    """
    layer = info.layer
    kernel = getattr(layer, "kernel_size", (1, 1))
    return (
        type(layer).__name__,
        info.input_shape.as_tuple(),
        info.output_shape.as_tuple(),
        tuple(kernel),
        getattr(layer, "stride", 1),
        getattr(layer, "padding", 0),
        bool(getattr(layer, "relu", False)),
        int(fused_pool),
        info.ops,
    )


def _relabel(error: ReproError, from_name: str, to_name: str) -> ReproError:
    """A fresh copy of a memoized error, renamed for the requesting layer.

    Error messages start with the originating layer's name; on a
    shape-deduplicated hit the stored name is swapped for the requested
    one.  A new exception instance is raised every time so concurrent
    workers never share (and mutate) one object's traceback.
    """
    message = str(error)
    if from_name != to_name:
        message = message.replace(from_name, to_name)
    return type(error)(message)


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters.

    ``hits`` / ``misses`` count estimate-level lookups;
    ``partition_hits`` / ``partition_misses`` count the group-geometry
    memo consulted on estimate misses.  ``hit_rate`` aggregates both
    levels — the fraction of memoized lookups served without
    recomputation.
    """

    hits: int = 0
    misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0
    shape_dedup_hits: int = 0
    error_entries: int = 0

    @property
    def lookups(self) -> int:
        """Estimate-level lookups."""
        return self.hits + self.misses

    @property
    def estimate_hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def hit_rate(self) -> float:
        """Served-from-cache fraction across both memo levels."""
        total = (
            self.hits + self.misses
            + self.partition_hits + self.partition_misses
        )
        return (self.hits + self.partition_hits) / total if total else 0.0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            partition_hits=self.partition_hits - other.partition_hits,
            partition_misses=self.partition_misses - other.partition_misses,
            shape_dedup_hits=self.shape_dedup_hits - other.shape_dedup_hits,
            error_entries=self.error_entries - other.error_entries,
        )

    def describe(self) -> str:
        """Partition level first; the estimate clause only when there
        were estimate lookups."""
        estimates = (
            f"{self.hits}/{self.lookups} estimate hits "
            f"({self.estimate_hit_rate * 100:.1f}%), "
            if self.lookups else ""
        )
        return (
            f"{self.partition_hits}/"
            f"{self.partition_hits + self.partition_misses} partition hits, "
            f"{estimates}"
            f"{self.hit_rate * 100:.1f}% overall, "
            f"{self.shape_dedup_hits} from shape dedup, "
            f"{self.error_entries} infeasible entries"
        )


class EvaluationCache:
    """Memoizes :func:`repro.estimator.latency.estimate_layer`.

    Thread-safe: entries are plain dict items written under a lock, so a
    cache may be shared across threads.  Two threads racing on the same
    key at worst compute the entry twice; both arrive at the identical
    value, so correctness is unaffected.
    """

    def __init__(self) -> None:
        self._estimates = {}
        self._partitions = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._part_hits = 0
        self._part_misses = 0
        self._dedup_hits = 0
        self._error_entries = 0  # error-valued estimate entries (O(1) stats)
        # Keys computed since the last take_dirty() — the delta an
        # EvaluationStore persists.  Warmed keys are deliberately
        # absent: they came *from* the store.
        self._dirty_estimates = set()
        self._dirty_partitions = set()

    def __len__(self) -> int:
        return len(self._estimates)

    def partition(
        self,
        cfg: AcceleratorConfig,
        info: LayerInfo,
        mode: str,
        fused_pool: int = 1,
    ) -> LayerPartition:
        """Cached drop-in for ``partition_layer`` (same raises)."""
        key = (
            layer_signature(info, fused_pool),
            cfg.pi,
            cfg.po,
            cfg.pt,
            cfg.input_buffer_vecs,
            cfg.weight_buffer_vecs,
            cfg.output_buffer_vecs,
            mode,
        )
        entry = self._partitions.get(key)
        if entry is not None:
            partition, error, from_name = entry
            with self._lock:
                self._part_hits += 1
            if error is not None:
                raise _relabel(error, from_name, info.layer.name)
            return partition
        try:
            partition = partition_layer(cfg, info, mode, fused_pool)
        except ReproError as exc:
            with self._lock:
                self._part_misses += 1
                self._partitions[key] = (None, exc, info.layer.name)
                self._dirty_partitions.add(key)
            raise
        with self._lock:
            self._part_misses += 1
            self._partitions[key] = (partition, None, info.layer.name)
            self._dirty_partitions.add(key)
        return partition

    def estimate(
        self,
        cfg: AcceleratorConfig,
        device: FpgaDevice,
        info: LayerInfo,
        mode: str,
        dataflow: str,
        fused_pool: int = 1,
    ) -> LayerEstimate:
        """Cached drop-in for ``estimate_layer`` (same raises)."""
        key = (
            layer_signature(info, fused_pool),
            cfg,
            device.name,
            device.memory,
            mode,
            dataflow,
        )
        entry = self._estimates.get(key)
        if entry is not None:
            estimate, error, from_name = entry
            with self._lock:
                self._hits += 1
                if from_name != info.layer.name:
                    self._dedup_hits += 1
            if error is not None:
                raise _relabel(error, from_name, info.layer.name)
            if estimate.layer_name != info.layer.name:
                estimate = replace(estimate, layer_name=info.layer.name)
            return estimate
        try:
            partition = self.partition(cfg, info, mode, fused_pool)
            estimate = estimate_layer(
                cfg, device, info, mode, dataflow, fused_pool,
                partition=partition,
            )
        except ReproError as exc:
            with self._lock:
                self._misses += 1
                self._estimates[key] = (None, exc, info.layer.name)
                self._dirty_estimates.add(key)
                self._error_entries += 1
            raise
        with self._lock:
            self._misses += 1
            self._estimates[key] = (estimate, None, info.layer.name)
            self._dirty_estimates.add(key)
        return estimate

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                partition_hits=self._part_hits,
                partition_misses=self._part_misses,
                shape_dedup_hits=self._dedup_hits,
                error_entries=self._error_entries,
            )

    def clear(self) -> None:
        with self._lock:
            self._estimates.clear()
            self._partitions.clear()
            self._dirty_estimates.clear()
            self._dirty_partitions.clear()
            self._hits = self._misses = self._dedup_hits = 0
            self._part_hits = self._part_misses = 0
            self._error_entries = 0

    # -- persistence / cross-process protocol ----------------------------

    def warm(self, estimates: dict, partitions: dict) -> int:
        """Pre-populate from store-loaded entries; returns entries added.

        Present keys win (a computed entry is at least as fresh as a
        persisted one) and nothing becomes dirty or counts as a hit —
        warming is invisible to both the counters and the next flush.

        The merge is C-level dict unpacking, the cache's own entries
        last: it reuses each entry's stored hash instead of calling the
        keys' Python-level dataclass ``__hash__`` again, and
        ``_error_entries`` is recounted from the values, which needs no
        hashing at all.
        """
        with self._lock:
            before = len(self._estimates) + len(self._partitions)
            self._estimates = {**estimates, **self._estimates}
            self._partitions = {**partitions, **self._partitions}
            self._error_entries = sum(
                1 for entry in self._estimates.values()
                if entry[1] is not None
            )
            return len(self._estimates) + len(self._partitions) - before

    def take_dirty(self) -> Tuple[dict, dict]:
        """Entries computed since the last call (and un-dirty
        them) — the delta an :class:`EvaluationStore` flush persists."""
        with self._lock:
            estimates = {
                key: self._estimates[key]
                for key in self._dirty_estimates
                if key in self._estimates
            }
            partitions = {
                key: self._partitions[key]
                for key in self._dirty_partitions
                if key in self._partitions
            }
            self._dirty_estimates.clear()
            self._dirty_partitions.clear()
        return estimates, partitions

    def mark_dirty(self, estimate_keys, partition_keys) -> None:
        """Re-flag present keys as dirty (store flush-failure rollback)."""
        with self._lock:
            self._dirty_estimates.update(
                key for key in estimate_keys if key in self._estimates
            )
            self._dirty_partitions.update(
                key for key in partition_keys if key in self._partitions
            )
