"""Vectorised candidate-batch latency estimation (the DSE's Step 2/3).

:func:`repro.estimator.latency.estimate_layer` evaluates Eq. 6-15 for
one (candidate, layer, mode, dataflow) at a time; a full sweep would
call it tens of thousands of times, and the time goes to Python
arithmetic and object construction, not to the math.
:class:`BatchLayerEstimator` evaluates every compute layer for a whole
*batch* of candidates at once instead: the per-layer constants of
Eq. 6-11 are ``(L, 1)`` float64 columns stacked at construction, the
candidates' ``(PI, PO, PT, m, freq, bandwidth)`` are ``(1, C)``
columns, and each of ``T_CP/T_LDI/T_LDW/T_SV``, ``T_penalty``, the
IS/WS body maxes and the latencies is one ``(L, C)`` expression per
mode.  It answers three questions per batch:

* :meth:`~BatchLayerEstimator.latency_bounds` — the admissible
  network-latency bound the DSE prunes with, as one column;
* :meth:`~BatchLayerEstimator.network_latencies` — each candidate's
  network latency under the mapping
  :func:`~repro.dse.engine.map_network` would select, with no
  estimate object built;
* :meth:`~BatchLayerEstimator.map_candidates` — the materialised
  ``(NetworkMapping, NetworkEstimate)`` pairs, which the DSE builds
  only for the designs it returns.

A batch is a :class:`~repro.dse.space.HardwareSpace` (or a slice of
one) or a list of configs; both take the same path, in the calling
thread: a process pool costs more to start and feed than a
621-candidate VU9P sweep takes serially.

**Exactness.**  The vector path is byte-identical to the scalar
oracle, not approximately equal — every term, the bound column and
the latency column.  Every scalar expression is replicated
element-wise with the same operation order and associativity, and IEEE
754 float64 operations are deterministic and correctly rounded, so
each intermediate is bit-equal; broadcasting a ``(L, 1)`` column
against a ``(1, C)`` one changes no element's arithmetic.  A
candidate's bandwidth is its base's ``FpgaDevice.bandwidth_elems``
divided by its instance column, the scalar division order.  The bound
column and each network latency are left folds
(:func:`~repro.numeric.left_sums`) over the layer axis in layer order,
every candidate at once: the bound equals the scalar loop's ``total +
bound`` from ``0.0``, and the latency the fold
``NetworkEstimate.latency`` makes (so it is bit-equal on every Python,
including those whose ``sum`` compensates).
The one place the two paths differ structurally — the scalar path
forms integer numerators such as ``k * c * r * s * out_h * out_w`` in
exact Python-int arithmetic and converts to float once, while the
vector path multiplies float64 values stepwise — stays exact as long as
every intermediate integer product is below ``2**53`` (float64
represents every such integer exactly, and a product of
exactly-represented integers below the limit is itself exact).  The
constructor checks this per layer and refuses networks beyond it;
nothing in the zoo comes within orders of magnitude.  Selection order
is replicated too: latencies are stacked in the (mode, dataflow)
iteration order of :func:`~repro.dse.engine.map_network` into one
``(4, L, C)`` array, infeasible entries at ``inf``, and ``argmin``
picks the *first* minimum, exactly matching the scalar strict-``<``
update; a materialised row's ``bound`` label is chosen by the scalar
path's own first-maximum rule.

**Group geometry.**  The Sec. 4.2.4 group counts come from
:meth:`~repro.mapping.partition.LayerColumns.group_counts`: one int64
``(L, B)`` array per mode over the ``B`` bases a batch's candidates
index (a space's, or a config list's), in integer arithmetic equal to
:func:`~repro.mapping.partition.partition_layer`'s counts, gathered to
``(L, C)`` by the batch's base ids.  No ``LayerPartition`` is built and
nothing is looked up in a cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.params import SUPPORTED_PT, ConfigColumns
from repro.errors import DseError
from repro.estimator.latency import (
    GROUP_OVERHEAD_CYCLES,
    LayerEstimate,
    NetworkEstimate,
)
from repro.fpga.device import FpgaDevice
from repro.ir.graph import LayerInfo, Network
from repro.mapping.partition import LayerColumns, fused_pool_for, layer_shape
from repro.mapping.strategy import (
    DATAFLOWS,
    MODES,
    LayerMapping,
    NetworkMapping,
    winograd_supported,
)
from repro.numeric import left_sums

#: (mode, dataflow) combinations in ``map_network``'s iteration order —
#: ``argmin`` over this axis replicates its first-strict-minimum pick.
COMBOS: Tuple[Tuple[str, str], ...] = tuple(
    (mode, dataflow) for mode in MODES for dataflow in DATAFLOWS
)

#: Largest integer float64 represents exactly; the stepwise numerator
#: products must stay below it for the byte-identity argument to hold.
_EXACT_LIMIT = 2**53


class _LayerGeometry:
    """Per-layer constants of Eq. 6-11, precomputed once per network."""

    __slots__ = (
        "shape", "pool", "name", "ops", "wino_ok", "kcb", "chw",
        "sv_elems", "num_spat", "wgt_spat", "out_hw",
    )

    def __init__(self, network: Network, info: LayerInfo):
        self.shape = layer_shape(info)
        c, k, r, s, _, _, h, w, out_h, out_w = self.shape
        self.pool = fused_pool_for(network, info.index)
        self.name = info.layer.name
        self.ops = info.ops
        self.wino_ok = winograd_supported(info)
        self.kcb = k * c * (-(-r // 3)) * (-(-s // 3))  # Winograd blocks
        self.out_hw = out_h * out_w
        self.chw = c * h * w  # Eq. 10 numerator
        self.sv_elems = k * out_h * out_w  # Eq. 11 numerator
        self.num_spat = k * c * r * s * out_h * out_w  # Eq. 6 numerator
        self.wgt_spat = k * c * r * s  # Eq. 8 numerator
        pt_max = max(SUPPORTED_PT)
        worst = max(
            self.num_spat, self.kcb * pt_max * pt_max * self.out_hw
        )
        if worst >= _EXACT_LIMIT:
            raise DseError(
                f"layer {self.name!r} is too large for the vectorized "
                f"estimator's exact float64 products ({worst} >= 2**53)"
            )


class BatchLayerEstimator:
    """Eq. 6-15 for *all* candidates of a batch as numpy column ops.

    One instance serves one ``(device, network)`` pair for the lifetime
    of a DSE run: layer geometry is stacked into ``(L, 1)`` columns at
    construction.  The per-base columns and group counts are computed
    once for all bases of a :class:`~repro.dse.space.HardwareSpace` and
    kept while its sub-spaces come back as batches (they share its
    ``bases``); each batch gathers them by its ``base_ids``.

    Every entry point takes a column-backed
    :class:`~repro.dse.space.HardwareSpace` (or a slice of one) or a
    list of configs; both go through :func:`_batch` and one evaluation.
    """

    def __init__(self, device: FpgaDevice, network: Network):
        self.device = device
        self.network = network
        self.layers = [
            _LayerGeometry(network, info)
            for info in network.compute_layers()
        ]

        def column(name):
            return np.array(
                [getattr(geom, name) for geom in self.layers],
                dtype=np.float64,
            )[:, None]

        self._kcb = column("kcb")
        self._out_hw = column("out_hw")
        self._num_spat = column("num_spat")  # Eq. 6 numerator
        self._wgt_spat = column("wgt_spat")  # Eq. 8 numerator
        self._chw = column("chw")  # Eq. 10 numerator
        self._sv_elems = column("sv_elems")  # Eq. 11 numerator
        self._wino_ok = column("wino_ok") > 0.0
        self._partition = LayerColumns(
            [geom.shape for geom in self.layers],
            [geom.pool for geom in self.layers],
        )
        #: ``(bases, per-base columns, {mode: group counts})`` of the
        #: last bases seen.
        self._table = None

    # -- Eq. 6-15 columns ---------------------------------------------------

    def _base_table(self, bases):
        """``(bases, per_base, counts)`` for a batch's
        :class:`~repro.arch.params.ConfigColumns`: the ``(7, B)``
        float64 columns ``(PI, PO, PT, m, freq, bw_f, bw_w)`` of every
        base and a dict that :meth:`_group_counts` fills per mode."""
        table = self._table
        if table is None or table[0] is not bases:
            per_base = np.stack([
                bases.pi, bases.po, bases.pt, bases.m,
                bases.frequency_mhz * 1e6,
                _bandwidth(self.device, bases.data_width),
                _bandwidth(self.device, bases.weight_width),
            ]).astype(np.float64)
            table = self._table = (bases, per_base, {})
        return table

    def _group_counts(self, bases, mode: str) -> np.ndarray:
        """The ``(5, L, B)`` group counts of every base under ``mode``."""
        _, _, counts = self._base_table(bases)
        if mode not in counts:
            counts[mode] = self._partition.group_counts(mode, bases)
        return counts[mode]

    def _columns(self, batch):
        """The ``(1, C)`` columns ``(PI, PO, PT, m, freq, bw_f, bw_w)``
        of a batch's candidates; a bandwidth is its base's
        ``bandwidth_elems`` over its instance count, in scalar order."""
        bases, base_ids, instances = batch
        _, per_base, _ = self._base_table(bases)
        pi, po, pt, m, freq, bw_f, bw_w = per_base[:, base_ids][:, None, :]
        return (pi, po, pt, m, freq, bw_f / instances, bw_w / instances)

    def _mode_times(self, mode, cols):
        """``_module_times`` for every (layer, candidate): ``(L, C)``
        T_CP, T_LDI, T_LDW, T_SV, in the scalar operation order."""
        pi, po, pt, m, freq, bw_f, bw_w = cols
        rate = freq * pi * po * pt
        if mode == "wino":
            wgt_elems = self._kcb * pt * pt
            t_comp = (wgt_elems * self._out_hw) / (rate * pt * m * m)  # Eq. 7
        else:
            wgt_elems = self._wgt_spat
            t_comp = self._num_spat / (rate * pt)  # Eq. 6
        t_ldw = wgt_elems / np.minimum(bw_w, rate)  # Eq. 8/9
        t_ldi = self._chw / np.minimum(bw_f, freq * pi * pt)  # Eq. 10
        t_sv = self._sv_elems / np.minimum(bw_f, freq * po * pt)  # Eq. 11
        return t_comp, t_ldi, t_ldw, t_sv

    def latency_bounds(self, cfgs: Sequence) -> np.ndarray:
        """Admissible network-latency bound per candidate (seconds).

        Every (mode, dataflow) latency is ``body + T_penalty`` where
        the body maxes the Eq. 6-11 module times (Eq. 12-15): ``T_CP``
        and ``T_SV`` appear directly, and the load terms appear scaled
        by a group count ``>= 1``.  So for either dataflow ``latency >=
        max(T_CP, T_LDI, T_LDW, T_SV)`` without partitioning a layer.
        Per layer the largest of the four module times, the smaller of
        its Spatial and (where supported) Winograd values, folded in
        layer order — bit-equal to the scalar loop
        ``tests/test_dse_oracle.py`` keeps.
        """
        cols = self._columns(_batch(cfgs))
        spat = _largest(self._mode_times("spat", cols))
        wino = _largest(self._mode_times("wino", cols))
        return left_sums(
            np.where(self._wino_ok, np.minimum(spat, wino), spat)
        )

    def _evaluate(self, batch):
        """All terms for every (combo, layer, candidate).

        Returns one row per :data:`COMBOS` entry of ``(L, C)`` arrays
        ``(feasible, t_comp, t_ldi, t_ldw, t_sv, t_penalty, latency,
        input_term, weight_term)``.
        """
        bases, base_ids, _ = batch
        cols = self._columns(batch)
        freq = cols[4]
        overhead = float(GROUP_OVERHEAD_CYCLES)
        rows = []
        for mode in MODES:
            ok, gk, n_rows, gc, groups = self._group_counts(
                bases, mode
            )[:, :, base_ids]
            ok = ok > 0
            t_comp, t_ldi, t_ldw, t_sv = self._mode_times(mode, cols)
            t_penalty = (
                t_ldi / np.maximum(n_rows, 1.0)
                + t_ldw / np.maximum(gk, 1.0)
                + t_sv / np.maximum(n_rows, 1.0)
                + groups * overhead / freq
            )
            terms = {
                # Eq. 12 / 14 — and the GC == 1 rule the scalar path
                # enforces with UnsupportedLayerError.
                "is": (ok & (gc == 1), t_ldi, n_rows * t_ldw),
                # Eq. 13 / 15.
                "ws": (ok, gk * t_ldi, t_ldw),
            }
            for dataflow in DATAFLOWS:
                feasible, input_term, weight_term = terms[dataflow]
                body = np.maximum(
                    np.maximum(np.maximum(input_term, weight_term), t_comp),
                    t_sv,
                )
                rows.append((
                    feasible, t_comp, t_ldi, t_ldw, t_sv, t_penalty,
                    body + t_penalty, input_term, weight_term,
                ))
        return rows

    # -- results -----------------------------------------------------------

    def network_latencies(self, cfgs: Sequence) -> List[Optional[float]]:
        """Per candidate: the ``latency`` of the ``NetworkEstimate``
        :func:`~repro.dse.engine.map_network` would return, or ``None``
        where it would raise :class:`~repro.errors.DseError` (some layer
        fits no combination).  No estimate object is built."""
        batch = _batch(cfgs)
        if not len(batch[1]):
            return []
        _, latency, alive = _select(self._evaluate(batch))
        return [
            total if ok else None
            for total, ok in zip(left_sums(latency).tolist(), alive.tolist())
        ]

    @staticmethod
    def _materialize(geom, row, li, j, mode, dataflow) -> LayerEstimate:
        """One scalar :class:`LayerEstimate` out of the ``(L, C)`` arrays."""
        terms = {
            "input": float(row[7][li, j]),
            "weight": float(row[8][li, j]),
            "compute": float(row[1][li, j]),
            "save": float(row[4][li, j]),
        }
        return LayerEstimate(
            layer_name=geom.name,
            mode=mode,
            dataflow=dataflow,
            t_comp=terms["compute"],
            t_ldi=float(row[2][li, j]),
            t_ldw=float(row[3][li, j]),
            t_sv=terms["save"],
            t_penalty=float(row[5][li, j]),
            latency=float(row[6][li, j]),
            bound=max(terms, key=terms.get),
            ops=geom.ops,
        )

    def estimate_grid(
        self, cfgs: Sequence
    ) -> List[List[Dict[Tuple[str, str], Optional[LayerEstimate]]]]:
        """Every (layer, mode, dataflow) estimate per candidate.

        ``grid[j][li][(mode, dataflow)]`` is the materialised
        :class:`LayerEstimate` of candidate ``j`` on compute layer
        ``li`` — or ``None`` where the scalar path raises.  This is the
        exhaustive view the property tests compare term by term against
        :func:`~repro.estimator.latency.estimate_layer`.
        """
        batch = _batch(cfgs)
        rows = self._evaluate(batch) if len(batch[1]) else []
        return [
            [
                {
                    combo: (
                        self._materialize(geom, row, li, j, *combo)
                        if row[0][li, j] else None
                    )
                    for combo, row in zip(COMBOS, rows)
                }
                for li, geom in enumerate(self.layers)
            ]
            for j in range(len(batch[1]))
        ]

    def map_candidates(
        self, cfgs: Sequence
    ) -> List[Optional[Tuple[NetworkMapping, NetworkEstimate]]]:
        """Step 2 for a whole candidate batch at once.

        Per candidate: the ``(mapping, estimate)`` pair
        :func:`~repro.dse.engine.map_network` would return, or ``None``
        where it would raise :class:`~repro.errors.DseError` (some
        layer fits no combination).  Results are byte-identical to the
        scalar path, runner-up ties included.
        """
        batch = _batch(cfgs)
        if not len(batch[1]):
            return []
        rows = self._evaluate(batch)
        choices, _, alive = _select(rows)
        results: List[Optional[Tuple[NetworkMapping, NetworkEstimate]]] = []
        for j, (count, ok) in enumerate(
            zip(batch[2].tolist(), alive.tolist())
        ):
            if not ok:
                results.append(None)
                continue
            selections = []
            estimates = []
            for li, (geom, ci) in enumerate(
                zip(self.layers, choices[:, j].tolist())
            ):
                mode, dataflow = COMBOS[ci]
                estimates.append(self._materialize(
                    geom, rows[ci], li, j, mode, dataflow
                ))
                selections.append(LayerMapping(geom.name, mode, dataflow))
            results.append((
                NetworkMapping(self.network.name, selections),
                NetworkEstimate(
                    network_name=self.network.name,
                    layers=estimates,
                    instances=count,
                ),
            ))
        return results


def _batch(cfgs):
    """``(bases, base_ids, instances)`` of a candidate batch: a
    :class:`~repro.dse.space.HardwareSpace` (duck-typed, as the DSE
    layer imports this one) as it is, a list with each config its own
    base.  Bases are :class:`~repro.arch.params.ConfigColumns`: every
    field but the instance count."""
    if hasattr(cfgs, "base_ids"):
        return cfgs.bases, cfgs.base_ids, cfgs.instances
    configs = list(cfgs)
    instances = np.array([cfg.instances for cfg in configs], dtype=np.int64)
    return ConfigColumns.of(configs), np.arange(len(configs)), instances


def _bandwidth(device: FpgaDevice, widths: np.ndarray) -> np.ndarray:
    """``device.bandwidth_elems`` of every entry of a width column."""
    per_width = {
        width: device.bandwidth_elems(width) for width in set(widths.tolist())
    }
    return np.array([per_width[width] for width in widths.tolist()],
                    dtype=np.float64)


def _select(rows):
    """``map_network``'s pick per (layer, candidate).

    Returns ``(choices, latency, alive)``: the index into :data:`COMBOS`
    of the first least-latency feasible combination (``argmin`` over
    the ``(4, L, C)`` stack, infeasible entries at ``inf``), its
    latency, and the candidates where every layer has one.
    """
    stack = np.stack([np.where(row[0], row[6], np.inf) for row in rows])
    choices = np.argmin(stack, axis=0)
    latency = np.take_along_axis(stack, choices[None], axis=0)[0]
    return choices, latency, np.isfinite(latency).all(axis=0)


def _largest(terms) -> np.ndarray:
    """Elementwise ``max`` of the four module times."""
    t_comp, t_ldi, t_ldw, t_sv = terms
    return np.maximum(np.maximum(np.maximum(t_comp, t_ldi), t_ldw), t_sv)
